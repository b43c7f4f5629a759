//===- tests/analysis_test.cpp - Static race analyzer tests ---------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Tests for analysis/RaceLint.h and its wiring into the PS^na explorer:
//
//  * verdicts over the whole litmus corpus against a hand-checked table;
//  * every PotentiallyRacy witness on the corpus replays to a real dynamic
//    race (RaceSteps > 0 in a lint-off exploration) — no entry currently
//    needs the explicit false-positive classification;
//  * the soundness differential: statically-safe programs (corpus plus
//    200+ seeded random programs at 1, 2, and 8 threads) never exhibit a
//    dynamic race, and behavior sets are bit-identical lint-on vs
//    lint-off;
//  * golden snapshots of the analyzer report for six corpus programs
//    (--update-golden regenerates, like memo_golden_test);
//  * unit tests for mayFollowPath, footprints, and the discharge rule.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "adequacy/RandomProgram.h"
#include "analysis/RaceLint.h"
#include "litmus/Corpus.h"
#include "psna/Explorer.h"
#include "support/Rng.h"

#include <map>

using namespace pseq;
using analysis::RaceVerdict;

namespace {

/// Hand-checked expected verdict per corpus case. A new corpus entry must
/// be classified here (the table test fails on unknown names).
const std::map<std::string, RaceVerdict> &expectedVerdicts() {
  static const std::map<std::string, RaceVerdict> Table = {
      {"ex5.1-promise-racy-read", RaceVerdict::PotentiallyRacy},
      {"ex5.1-no-promises", RaceVerdict::PotentiallyRacy},
      {"lb-rlx", RaceVerdict::AtomicsOnly},
      {"lb-rlx-no-promises", RaceVerdict::AtomicsOnly},
      {"lb-acq", RaceVerdict::AtomicsOnly},
      {"lb-rel", RaceVerdict::AtomicsOnly},
      {"sb-rlx", RaceVerdict::AtomicsOnly},
      {"2+2w-rlx", RaceVerdict::AtomicsOnly},
      {"mp-rel-acq", RaceVerdict::RaceFree},
      {"mp-rlx-races", RaceVerdict::PotentiallyRacy},
      {"corr-rlx", RaceVerdict::AtomicsOnly},
      {"ww-race-ub", RaceVerdict::PotentiallyRacy},
      {"wr-race-undef", RaceVerdict::PotentiallyRacy},
      {"iriw-rel-acq", RaceVerdict::AtomicsOnly},
      {"wrc-rel-acq", RaceVerdict::AtomicsOnly},
      {"coww-fadd", RaceVerdict::AtomicsOnly},
      {"appB-split-writes", RaceVerdict::PotentiallyRacy},
      {"appB-single-message", RaceVerdict::PotentiallyRacy},
      {"appC-choose-rel-src", RaceVerdict::AtomicsOnly},
      {"appC-choose-rel-tgt", RaceVerdict::AtomicsOnly},
  };
  return Table;
}

/// Corpus cases whose PotentiallyRacy verdict is a known static
/// over-approximation: no dynamic race exists *under the case's explorer
/// configuration*. ex5.1-no-promises runs with PromiseBudget = 0, which
/// removes the promise the race needs; the analyzer is
/// configuration-oblivious (the same program with a promise budget — the
/// ex5.1-promise-racy-read entry — does race dynamically).
const std::vector<std::string> &knownFalsePositives() {
  static const std::vector<std::string> List = {"ex5.1-no-promises"};
  return List;
}

PsConfig caseConfig(const LitmusCase &LC, bool Lint) {
  PsConfig Cfg;
  Cfg.Domain = LC.Domain;
  Cfg.PromiseBudget = LC.PromiseBudget;
  Cfg.SplitBudget = LC.SplitBudget;
  Cfg.NumThreads = 1;
  Cfg.Lint = Lint;
  return Cfg;
}

} // namespace

TEST(RaceLint, CorpusVerdictTable) {
  const auto &Table = expectedVerdicts();
  for (const LitmusCase &LC : litmusCorpus()) {
    auto It = Table.find(LC.Name);
    ASSERT_NE(It, Table.end())
        << "corpus case '" << LC.Name
        << "' has no expected verdict — classify it in analysis_test.cpp";
    std::unique_ptr<Program> P = prog(LC.Text);
    analysis::RaceReport Rep = analysis::analyzeRaces(*P);
    EXPECT_EQ(Rep.Verdict, It->second)
        << LC.Name << ": got " << analysis::raceVerdictName(Rep.Verdict);
    // A witness accompanies exactly the racy verdict.
    EXPECT_EQ(Rep.Witness.has_value(),
              Rep.Verdict == RaceVerdict::PotentiallyRacy)
        << LC.Name;
    if (Rep.Witness) {
      const Program &Prog = *P;
      // The witness names a real cross-thread pair on a shared location
      // with a write on the A side.
      EXPECT_NE(Rep.Witness->TidA, Rep.Witness->TidB) << LC.Name;
      EXPECT_LT(Rep.Witness->Loc, Prog.numLocs()) << LC.Name;
      EXPECT_NE(Rep.Witness->StmtA, nullptr) << LC.Name;
      EXPECT_NE(Rep.Witness->StmtB, nullptr) << LC.Name;
    }
  }
}

TEST(RaceLint, EveryCorpusWitnessReplaysToADynamicRace) {
  for (const LitmusCase &LC : litmusCorpus()) {
    std::unique_ptr<Program> P = prog(LC.Text);
    analysis::RaceReport Rep = analysis::analyzeRaces(*P);
    if (Rep.Verdict != RaceVerdict::PotentiallyRacy)
      continue;
    bool Whitelisted = false;
    for (const std::string &N : knownFalsePositives())
      Whitelisted |= N == LC.Name;
    PsBehaviorSet B = explorePsna(*P, caseConfig(LC, /*Lint=*/false));
    ASSERT_FALSE(B.truncated()) << LC.Name;
    if (Whitelisted) {
      EXPECT_EQ(B.RaceSteps, 0u)
          << LC.Name << " is whitelisted as a false positive but the "
          << "explorer observed a dynamic race — remove it from the list";
    } else {
      EXPECT_GT(B.RaceSteps, 0u)
          << LC.Name << ": static witness " << Rep.Witness->str(*P)
          << " did not replay to a dynamic race — classify it as a false "
          << "positive or fix the analyzer";
    }
  }
}

TEST(RaceLint, SoundnessDifferentialOnCorpus) {
  for (const LitmusCase &LC : litmusCorpus()) {
    std::unique_ptr<Program> P = prog(LC.Text);
    PsBehaviorSet On = explorePsna(*P, caseConfig(LC, /*Lint=*/true));
    PsBehaviorSet Off = explorePsna(*P, caseConfig(LC, /*Lint=*/false));
    ASSERT_FALSE(On.truncated()) << LC.Name;
    ASSERT_FALSE(Off.truncated()) << LC.Name;
    // Bit-identical behavior sets (the NAMsg-pruning soundness claim).
    EXPECT_EQ(On.strs(), Off.strs()) << LC.Name;
    ASSERT_TRUE(On.Lint.has_value()) << LC.Name;
    EXPECT_FALSE(Off.Lint.has_value()) << LC.Name;
    if (*On.Lint != RaceVerdict::PotentiallyRacy) {
      // Statically safe: the dynamic oracle must agree, in both runs.
      EXPECT_EQ(Off.RaceSteps, 0u) << LC.Name;
      EXPECT_EQ(On.RaceSteps, 0u) << LC.Name;
      EXPECT_TRUE(On.MarkersSkipped) << LC.Name;
      EXPECT_EQ(On.NaMarkers, 0u) << LC.Name;
      // Suppressing markers never grows the state space.
      EXPECT_LE(On.StatesExplored, Off.StatesExplored) << LC.Name;
    } else {
      EXPECT_FALSE(On.MarkersSkipped) << LC.Name;
      EXPECT_EQ(On.StatesExplored, Off.StatesExplored) << LC.Name;
    }
  }
}

TEST(RaceLint, SoundnessDifferentialOnRandomPrograms) {
  // 210 seeded random programs: 100 single-thread, 90 two-thread, 20
  // eight-thread. Eight-thread unguarded shapes can exceed any reasonable
  // state budget, so explorations are capped; a truncated run still
  // participates in the soundness check (a race observed in a prefix is a
  // race) but not in the bit-identity check (the cap cuts the two runs at
  // different frontiers by design).
  struct Tier {
    unsigned Threads;
    unsigned Count;
    unsigned MaxStates;
  };
  const Tier Tiers[] = {{1, 100, 50000}, {2, 90, 50000}, {8, 20, 1000}};
  Rng R(20260807);
  unsigned Proved = 0, Racy = 0;
  for (const Tier &T : Tiers) {
    for (unsigned I = 0; I != T.Count; ++I) {
      std::string Text = randomConcurrentProgram(R, T.Threads);
      std::unique_ptr<Program> P = prog(Text);
      PsConfig Cfg;
      Cfg.NumThreads = 1;
      Cfg.MaxStates = T.MaxStates;
      Cfg.CertNodeBudget = 2000;
      Cfg.Lint = true;
      PsBehaviorSet On = explorePsna(*P, Cfg);
      Cfg.Lint = false;
      PsBehaviorSet Off = explorePsna(*P, Cfg);
      ASSERT_TRUE(On.Lint.has_value()) << Text;
      bool StaticSafe = *On.Lint != RaceVerdict::PotentiallyRacy;
      (StaticSafe ? Proved : Racy) += 1;
      if (StaticSafe) {
        // Soundness: no dynamic race may surface, even in a truncated
        // prefix of the state space.
        EXPECT_EQ(On.RaceSteps, 0u) << Text;
        EXPECT_EQ(Off.RaceSteps, 0u) << Text;
        EXPECT_TRUE(On.MarkersSkipped) << Text;
      }
      if (!On.truncated() && !Off.truncated())
        EXPECT_EQ(On.strs(), Off.strs()) << Text;
    }
  }
  // The generator must actually exercise both sides of the verdict:
  // single-thread programs are all provably safe, the guarded multi-thread
  // half mostly proves too, and a healthy slice of the unguarded half must
  // be racy — otherwise this differential tests nothing.
  EXPECT_GT(Proved, 100u);
  EXPECT_GT(Racy, 10u);
}

TEST(RaceLint, MayFollowPath) {
  using V = std::vector<uint32_t>;
  constexpr uint32_t Seq = 1u << 28, If = 2u << 28, Wh = 3u << 28;
  // Straight-line order: a later Seq child may follow an earlier one,
  // never the reverse.
  EXPECT_TRUE(analysis::mayFollowPath(V{Seq | 1}, V{Seq | 0}));
  EXPECT_FALSE(analysis::mayFollowPath(V{Seq | 0}, V{Seq | 1}));
  // The same site never strictly follows itself outside a loop...
  EXPECT_FALSE(analysis::mayFollowPath(V{Seq | 0}, V{Seq | 0}));
  // ...but inside a While body everything may repeat.
  EXPECT_TRUE(analysis::mayFollowPath(V{Wh | 0, Seq | 0}, V{Wh | 0, Seq | 0}));
  EXPECT_TRUE(analysis::mayFollowPath(V{Wh | 0, Seq | 0}, V{Wh | 0, Seq | 1}));
  // Exclusive If branches cannot both execute.
  EXPECT_FALSE(analysis::mayFollowPath(V{Seq | 1, If | 0}, V{Seq | 1, If | 1}));
  // Prefix relationships are conservatively ordered both ways.
  EXPECT_TRUE(analysis::mayFollowPath(V{Seq | 0, Seq | 1}, V{Seq | 0}));
}

TEST(RaceLint, FootprintsOnMessagePassing) {
  std::unique_ptr<Program> P = prog(
      "na x; atomic y;\n"
      "thread { x@na := 1; y@rel := 1; return 0; }\n"
      "thread { b := y@acq; if (b == 1) { a := x@na; return a; } return 2; }");
  analysis::RaceReport Rep = analysis::analyzeRaces(*P);
  ASSERT_EQ(Rep.Threads.size(), 2u);
  unsigned X = *P->lookupLoc("x"), Y = *P->lookupLoc("y");
  const analysis::ThreadFootprint &W = Rep.Threads[0];
  EXPECT_TRUE(W.MayWrite.contains(X));
  EXPECT_TRUE(W.MustWrite.contains(X));
  EXPECT_TRUE(W.MustWrite.contains(Y));
  EXPECT_TRUE(W.NaWrite.contains(X));
  EXPECT_FALSE(W.NaWrite.contains(Y));
  EXPECT_FALSE(W.MayRead.contains(X));
  const analysis::ThreadFootprint &Rd = Rep.Threads[1];
  EXPECT_TRUE(Rd.MustRead.contains(Y));
  EXPECT_TRUE(Rd.MayRead.contains(X));
  // The guarded na read is conditional, not a must-access.
  EXPECT_FALSE(Rd.MustRead.contains(X));
  EXPECT_TRUE(Rd.NaRead.contains(X));
  // The guarded read site carries the acquire fact y == 1.
  bool FoundGuardedRead = false;
  for (const analysis::AccessSite &S : Rd.Sites)
    if (S.Loc == X && S.IsRead) {
      FoundGuardedRead = true;
      ASSERT_EQ(S.Facts.size(), 1u);
      EXPECT_EQ(S.Facts[0].Loc, Y);
      EXPECT_EQ(S.Facts[0].Val, 1);
    }
  EXPECT_TRUE(FoundGuardedRead);
}

TEST(RaceLint, DischargeRequiresReleaseOnEveryGuardWriter) {
  // Identical MP shape, but a second thread also writes the guard value 1
  // with relaxed mode: the acquire fact no longer implies the release edge
  // (the reader may have observed the relaxed write), so the proof must
  // fail.
  std::unique_ptr<Program> P = prog(
      "na x; atomic y;\n"
      "thread { x@na := 1; y@rel := 1; return 0; }\n"
      "thread { b := y@acq; if (b == 1) { a := x@na; return a; } return 2; }\n"
      "thread { y@rlx := 1; return 0; }");
  EXPECT_EQ(analysis::analyzeRaces(*P).Verdict, RaceVerdict::PotentiallyRacy);

  // Writing a different value relaxed keeps the proof: the guard tests for
  // 1 and the relaxed writer cannot produce it.
  std::unique_ptr<Program> Q = prog(
      "na x; atomic y;\n"
      "thread { x@na := 1; y@rel := 1; return 0; }\n"
      "thread { b := y@acq; if (b == 1) { a := x@na; return a; } return 2; }\n"
      "thread { y@rlx := 0; return 0; }");
  EXPECT_EQ(analysis::analyzeRaces(*Q).Verdict, RaceVerdict::RaceFree);
}

TEST(RaceLint, DischargeRequiresAcquireOnTheReader) {
  // Relaxed read of the flag: no synchronization fact, so the guarded na
  // read stays racy.
  std::unique_ptr<Program> P = prog(
      "na x; atomic y;\n"
      "thread { x@na := 1; y@rel := 1; return 0; }\n"
      "thread { b := y@rlx; if (b == 1) { a := x@na; return a; } return 2; }");
  EXPECT_EQ(analysis::analyzeRaces(*P).Verdict, RaceVerdict::PotentiallyRacy);
}

TEST(RaceLint, DischargeRejectsWritesAfterTheFlag) {
  // The data write sits after the release flag write, so the acquire
  // observation does not order it: must stay racy.
  std::unique_ptr<Program> P = prog(
      "na x; atomic y;\n"
      "thread { y@rel := 1; x@na := 1; return 0; }\n"
      "thread { b := y@acq; if (b == 1) { a := x@na; return a; } return 2; }");
  EXPECT_EQ(analysis::analyzeRaces(*P).Verdict, RaceVerdict::PotentiallyRacy);
}

TEST(RaceLint, ZeroGuardValueIsNotUsedForDischarge) {
  // The flag's initial value is 0, so observing 0 proves nothing: a guard
  // testing for 0 must not discharge the pair.
  std::unique_ptr<Program> P = prog(
      "na x; atomic y;\n"
      "thread { x@na := 1; y@rel := 0; return 0; }\n"
      "thread { b := y@acq; if (b == 0) { a := x@na; return a; } return 2; }");
  EXPECT_EQ(analysis::analyzeRaces(*P).Verdict, RaceVerdict::PotentiallyRacy);
}

TEST(RaceLint, ReaderSignalsDischargesPostQuiescenceWrite) {
  // The dual discharge direction (the RCU-quiescence / slot-reuse shape):
  // the reader finishes its na read and release-signals; the writer
  // acquire-waits on the signal before mutating, so the read
  // happens-before the write through the reader's own flag.
  std::unique_ptr<Program> P = prog(
      "na x; atomic q;\n"
      "thread { a := x@na; q@rel := 1; return a; }\n"
      "thread { b := q@acq; while (b != 1) { b := q@acq; } x@na := 1; "
      "return 0; }");
  EXPECT_EQ(analysis::analyzeRaces(*P).Verdict, RaceVerdict::RaceFree);

  // Signalling before the read proves nothing: the writer may observe the
  // flag while the read is still in flight.
  std::unique_ptr<Program> Q = prog(
      "na x; atomic q;\n"
      "thread { q@rel := 1; a := x@na; return a; }\n"
      "thread { b := q@acq; while (b != 1) { b := q@acq; } x@na := 1; "
      "return 0; }");
  EXPECT_EQ(analysis::analyzeRaces(*Q).Verdict, RaceVerdict::PotentiallyRacy);
}

TEST(RaceLint, ReaderSignalsRequiresUniqueSignalWriter) {
  // A third thread also produces the signal value with relaxed mode: the
  // writer's acquire observation no longer implies the reader passed its
  // release, so the quiescence proof must fail.
  std::unique_ptr<Program> P = prog(
      "na x; atomic q;\n"
      "thread { a := x@na; q@rel := 1; return a; }\n"
      "thread { b := q@acq; while (b != 1) { b := q@acq; } x@na := 1; "
      "return 0; }\n"
      "thread { q@rlx := 1; return 0; }");
  EXPECT_EQ(analysis::analyzeRaces(*P).Verdict, RaceVerdict::PotentiallyRacy);
}

TEST(RaceLint, WriterPublishDischargeIsPerPair) {
  // The SPSC slot-reuse shape: the producer's first store is ordered by
  // its own flag (per-pair — the *later* second store must not poison the
  // first pair's proof), and the second store is ordered by the
  // consumer's read-back signal. Both discharge directions combine to a
  // race-freedom proof.
  std::unique_ptr<Program> P = prog(
      "na s; atomic w, r;\n"
      "thread { s@na := 1; w@rel := 1;\n"
      "  a := r@acq; while (a != 1) { a := r@acq; }\n"
      "  s@na := 2; return 0; }\n"
      "thread { b := w@acq; while (b != 1) { b := w@acq; }\n"
      "  x := s@na; r@rel := 1; return x; }");
  EXPECT_EQ(analysis::analyzeRaces(*P).Verdict, RaceVerdict::RaceFree);

  // Without the read-back handshake the second store races with the
  // consumer's read: per-pair precision must not turn into unsoundness.
  std::unique_ptr<Program> Q = prog(
      "na s; atomic w, r;\n"
      "thread { s@na := 1; w@rel := 1; s@na := 2; return 0; }\n"
      "thread { b := w@acq; while (b != 1) { b := w@acq; }\n"
      "  x := s@na; r@rel := 1; return x; }");
  EXPECT_EQ(analysis::analyzeRaces(*Q).Verdict, RaceVerdict::PotentiallyRacy);
}

TEST(RaceLint, StaticallyDeadNaAccessIsIgnored)
{
  // The racy na write sits in a branch constant propagation proves dead.
  std::unique_ptr<Program> P = prog(
      "na x; atomic y;\n"
      "thread { r := 0; if (r == 1) { x@na := 1; } y@rlx := 1; return 0; }\n"
      "thread { a := x@na; return a; }");
  analysis::RaceReport Rep = analysis::analyzeRaces(*P);
  EXPECT_EQ(Rep.Verdict, RaceVerdict::RaceFree);
}

TEST(RaceLint, ReportRendersVerdictAndWitness) {
  std::unique_ptr<Program> P = prog("na x;\n"
                                    "thread { x@na := 1; return 0; }\n"
                                    "thread { a := x@na; return a; }");
  analysis::RaceReport Rep = analysis::analyzeRaces(*P);
  EXPECT_EQ(Rep.Verdict, RaceVerdict::PotentiallyRacy);
  std::string S = Rep.str(*P);
  EXPECT_NE(S.find("potentially-racy"), std::string::npos);
  EXPECT_NE(S.find("races with"), std::string::npos);
  std::string J = Rep.json(*P);
  EXPECT_NE(J.find("\"verdict\":"), std::string::npos);
  EXPECT_NE(J.find("\"witness\":"), std::string::npos);
}

TEST(RaceLint, TelemetryCountersFlow) {
  obs::Telemetry Telem;
  std::unique_ptr<Program> P = prog(
      "na x; atomic y;\n"
      "thread { x@na := 1; y@rel := 1; return 0; }\n"
      "thread { b := y@acq; if (b == 1) { a := x@na; return a; } return 2; }");
  PsConfig Cfg;
  Cfg.NumThreads = 1;
  Cfg.Telem = &Telem;
  PsBehaviorSet B = explorePsna(*P, Cfg);
  EXPECT_TRUE(B.MarkersSkipped);
  EXPECT_EQ(Telem.Counters.counter("analysis.runs"), 1u);
  EXPECT_EQ(Telem.Counters.counter("analysis.verdict.race_free"), 1u);
  EXPECT_EQ(Telem.Counters.counter("analysis.markers_skipped"), 1u);
  EXPECT_EQ(Telem.Counters.counter("analysis.agree"), 1u);
  EXPECT_EQ(Telem.Counters.counter("analysis.soundness_violation"), 0u);
  EXPECT_EQ(Telem.Counters.counter("psna.explore.race_steps"), 0u);
  EXPECT_EQ(Telem.Counters.counter("psna.na_markers"), 0u);
}

// --- Golden snapshots -------------------------------------------------------

namespace {

/// Renders one corpus case's analyzer report for the golden corpus.
std::string renderLintCase(const std::string &Name) {
  const LitmusCase &LC = litmusCaseByName(Name);
  std::unique_ptr<Program> P = prog(LC.Text);
  analysis::RaceReport Rep = analysis::analyzeRaces(*P);
  return "case: " + LC.Name + " [" + LC.PaperRef + "]\n" + Rep.str(*P);
}

class LintGoldenTest : public ::testing::TestWithParam<const char *> {};

} // namespace

TEST_P(LintGoldenTest, MatchesGolden) {
  std::string Name = GetParam();
  EXPECT_TRUE(
      matchesGolden(PSEQ_GOLDEN_DIR, "lint-" + Name, renderLintCase(Name)));
}

INSTANTIATE_TEST_SUITE_P(Corpus, LintGoldenTest,
                         ::testing::Values("sb-rlx", "lb-rlx", "mp-rel-acq",
                                           "corr-rlx", "2+2w-rlx",
                                           "coww-fadd"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           std::string N = I.param;
                           for (char &C : N)
                             if (C == '-' || C == '+')
                               C = '_';
                           return N;
                         });

int main(int Argc, char **Argv) {
  pseq::handleUpdateGoldenFlag(Argc, Argv);
  ::testing::InitGoogleTest(&Argc, Argv);
  return RUN_ALL_TESTS();
}

//===- tests/psna_drf_test.cpp - §5 results (E12) -------------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// The §5 "Results" paragraph: strengthening non-atomic accesses to atomic
// accesses is sound in PS^na, and the model's race discipline (UB only for
// write-write races; undef for write-read races) supports DRF-style
// programming guarantees — synchronized programs behave like interleaved
// ones and are insensitive to the promise machinery. The promise-free
// differential checks the explorer's use of that guarantee against full
// promise enumeration.
//
//===----------------------------------------------------------------------===//

#include "adequacy/ContextLibrary.h"
#include "adequacy/RandomProgram.h"
#include "atlas/Atlas.h"
#include "lang/Printer.h"
#include "litmus/Corpus.h"
#include "litmus/RealWorld.h"
#include "psna/Explorer.h"
#include "support/Rng.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <set>

using namespace pseq;

namespace {

PsConfig cfg(unsigned Promises = 0) {
  PsConfig C;
  C.PromiseBudget = Promises;
  return C;
}

/// Checks outcome-set inclusion: every behavior of Tgt is ⊑-covered by Src.
void expectIncluded(const PsBehaviorSet &Tgt, const PsBehaviorSet &Src,
                    const std::string &What) {
  for (const PsBehavior &TB : Tgt.All)
    EXPECT_TRUE(Src.covers(TB))
        << What << ": behavior " << TB.str() << " not covered";
}

} // namespace

//===----------------------------------------------------------------------===
// Strengthening na → rlx (sound; the converse is not).
//===----------------------------------------------------------------------===

TEST(StrengtheningTest, NaToRlxIsSound) {
  // The same program with d non-atomic (source) vs relaxed-atomic
  // (target): every strengthened behavior must exist in the source.
  struct Shape {
    const char *Name;
    const char *Na;
    const char *Rlx;
  };
  const Shape Shapes[] = {
      {"wr-race",
       "na d;\nthread { d@na := 1; return 0; }\n"
       "thread { a := d@na; return a; }",
       "atomic d;\nthread { d@rlx := 1; return 0; }\n"
       "thread { a := d@rlx; return a; }"},
      {"mp-data",
       "na d; atomic f;\nthread { d@na := 1; f@rel := 1; return 0; }\n"
       "thread { b := f@acq; if (b == 1) { a := d@na; return a; } "
       "return 2; }",
       "atomic d, f;\nthread { d@rlx := 1; f@rel := 1; return 0; }\n"
       "thread { b := f@acq; if (b == 1) { a := d@rlx; return a; } "
       "return 2; }"},
      {"ww-race",
       "na d;\nthread { d@na := 1; return 0; }\n"
       "thread { d@na := 0; return 0; }",
       "atomic d;\nthread { d@rlx := 1; return 0; }\n"
       "thread { d@rlx := 0; return 0; }"},
  };
  // Lint off: the race-free mp-data source would otherwise run without
  // promises (the promise-free rule).
  PsConfig Cfg = cfg(1);
  Cfg.Lint = false;
  for (const Shape &S : Shapes) {
    auto NaP = prog(S.Na);
    auto RlxP = prog(S.Rlx);
    PsBehaviorSet NaB = explorePsna(*NaP, Cfg);
    PsBehaviorSet RlxB = explorePsna(*RlxP, Cfg);
    expectIncluded(RlxB, NaB, S.Name);
  }
}

TEST(StrengtheningTest, WeakeningIsUnsound) {
  // rlx → na weakening is NOT sound: the na version races (undef / UB).
  auto RlxP = prog("atomic d;\nthread { d@rlx := 1; return 0; }\n"
                   "thread { a := d@rlx; return a; }");
  auto NaP = prog("na d;\nthread { d@na := 1; return 0; }\n"
                  "thread { a := d@na; return a; }");
  PsBehaviorSet RlxB = explorePsna(*RlxP, cfg());
  PsBehaviorSet NaB = explorePsna(*NaP, cfg());
  bool AllCovered = true;
  for (const PsBehavior &TB : NaB.All)
    AllCovered &= RlxB.covers(TB);
  EXPECT_FALSE(AllCovered) << "the na version reads undef; rlx never does";
}

//===----------------------------------------------------------------------===
// DRF-style guarantees.
//===----------------------------------------------------------------------===

TEST(DrfTest, SynchronizedProgramInsensitiveToPromises) {
  // The MP handoff uses only rel/acq synchronization: enabling promises
  // must not add outcomes (promises need a certifiable relaxed cycle).
  const char *MP =
      "na d; atomic f;\n"
      "thread { d@na := 1; f@rel := 1; return 0; }\n"
      "thread { b := f@acq; if (b == 1) { a := d@na; return a; } "
      "return 2; }";
  // The promise side runs with the lint off: with it on, the promise-free
  // rule would explore this race-free program at budget 0 as well.
  auto P0 = prog(MP);
  auto P1 = prog(MP);
  PsConfig PromCfg = cfg(1);
  PromCfg.Lint = false;
  PsBehaviorSet NoProm = explorePsna(*P0, cfg(0));
  PsBehaviorSet Prom = explorePsna(*P1, PromCfg);
  EXPECT_FALSE(Prom.PromisesSkipped);
  EXPECT_EQ(NoProm.strs(), Prom.strs());
}

TEST(DrfTest, RacyProgramGainsOutcomesFromPromises) {
  // Contrast: the Example 5.1 shape gains the lb outcome with promises.
  const char *LB = "na x; atomic y;\n"
                   "thread { a := x@na; y@rlx := 1; return a; }\n"
                   "thread { b := y@rlx; if (b == 1) { x@na := 1; } "
                   "return b; }";
  auto P0 = prog(LB);
  auto P1 = prog(LB);
  PsBehaviorSet NoProm = explorePsna(*P0, cfg(0));
  PsBehaviorSet Prom = explorePsna(*P1, cfg(1));
  EXPECT_LT(NoProm.All.size(), Prom.All.size());
}

TEST(DrfTest, NoUBWithoutWriteWriteRace) {
  // §5: UB arises only from write-write races (or program faults). A
  // single-writer program never exhibits UB no matter the readers.
  const char *Programs[] = {
      "na d;\nthread { d@na := 1; return 0; }\n"
      "thread { a := d@na; b := d@na; return a + b; }",
      "na d; atomic f;\nthread { d@na := 1; f@rlx := 1; return 0; }\n"
      "thread { a := d@na; return a; }\n"
      "thread { b := d@na; return b; }",
  };
  for (const char *Text : Programs) {
    auto P = prog(Text);
    PsBehaviorSet B = explorePsna(*P, cfg(1));
    EXPECT_FALSE(B.containsStr("UB")) << Text;
  }
}

TEST(DrfTest, ReadOnlyNaSharingIsInterleavingExact) {
  // Two readers of an unwritten location always read the initial value.
  auto P = prog("na d;\n"
                "thread { a := d@na; return a; }\n"
                "thread { b := d@na; return b; }");
  PsBehaviorSet B = explorePsna(*P, cfg(1));
  ASSERT_EQ(B.All.size(), 1u);
  EXPECT_EQ(B.All[0].str(), "ret(0,0)");
}

//===----------------------------------------------------------------------===
// Guarded locking via CAS (the "locks from atomics" claim of §2).
//===----------------------------------------------------------------------===

TEST(DrfTest, CasLockProtectsNaData) {
  // Both threads take a CAS lock before touching d: no race, no undef,
  // and d ends incremented exactly... once per winner (the loser spins
  // zero times here: it simply skips on CAS failure).
  auto P = prog(
      "na d; atomic l;\n"
      "thread { w := cas(l, 0, 1) @ acq rel; if (w == 0) { a := d@na; "
      "d@na := a + 1; } return w; }\n"
      "thread { w := cas(l, 0, 1) @ acq rel; if (w == 0) { a := d@na; "
      "d@na := a + 1; } return w; }");
  PsBehaviorSet B = explorePsna(*P, cfg(1));
  EXPECT_FALSE(B.containsStr("UB"));
  // Exactly one thread wins the lock.
  EXPECT_TRUE(B.containsStr("ret(0,1)"));
  EXPECT_TRUE(B.containsStr("ret(1,0)"));
  EXPECT_FALSE(B.containsStr("ret(0,0)"));
}

//===----------------------------------------------------------------------===
// Differential properties of the explorer itself.
//===----------------------------------------------------------------------===

TEST(PsExplorerPropertyTest, NormalizationPreservesBehaviorSets) {
  // Timestamp ranking is a pure state-identification device: switching it
  // off must never change the observable outcome set, only the cost.
  for (const LitmusCase &LC : litmusCorpus()) {
    if (LC.Name.rfind("appB", 0) == 0 || LC.Name.rfind("appC", 0) == 0)
      continue; // heavyweight; covered by the bench ablation
    auto P1 = prog(LC.Text);
    auto P2 = prog(LC.Text);
    PsConfig On, Off;
    On.Domain = Off.Domain = LC.Domain;
    On.PromiseBudget = Off.PromiseBudget = LC.PromiseBudget;
    On.SplitBudget = Off.SplitBudget = LC.SplitBudget;
    Off.Normalize = false;
    PsBehaviorSet A = explorePsna(*P1, On);
    PsBehaviorSet B = explorePsna(*P2, Off);
    EXPECT_EQ(A.strs(), B.strs()) << LC.Name;
  }
}

TEST(PsExplorerPropertyTest, BehaviorInclusionIsReflexive) {
  for (const LitmusCase &LC : litmusCorpus()) {
    if (LC.PromiseBudget > 0 || LC.SplitBudget > 0)
      continue; // keep the sweep fast; promise cases covered elsewhere
    auto P = prog(LC.Text);
    PsConfig Cfg;
    Cfg.Domain = LC.Domain;
    PsBehaviorSet B = explorePsna(*P, Cfg);
    for (const PsBehavior &Beh : B.All)
      EXPECT_TRUE(B.covers(Beh)) << LC.Name << ": " << Beh.str();
  }
}

//===----------------------------------------------------------------------===
// Documented approximation: single-view fences (DESIGN.md deviation 1).
//===----------------------------------------------------------------------===

TEST(FenceApproximationTest, ScFencesDoNotForbidSbWeakOutcome) {
  // In full PS2.1 an SC fence pair forbids store buffering's ret(0,0).
  // Our single-view fragment models fences only as promise gates (the
  // paper's presented fragment has no SC accesses at all), so the weak
  // outcome remains. This test *documents* the approximation; if fences
  // ever gain real view semantics, flip the expectation.
  auto P = prog("atomic x, y;\n"
                "thread { x@rlx := 1; fence @ sc; a := y@rlx; return a; }\n"
                "thread { y@rlx := 1; fence @ sc; b := x@rlx; return b; }");
  PsBehaviorSet B = explorePsna(*P, cfg(0));
  EXPECT_TRUE(B.containsStr("ret(0,0)"))
      << "single-view approximation changed: update DESIGN.md deviation 1";
}

//===----------------------------------------------------------------------===
// Promise-free fast path (DESIGN.md "Promise-free fast path"): a program the
// lint proves race-free, with no relaxed write and no RMW, is explored at
// promise budget 0. Lint off skips the rule, so it is the full-enumeration
// oracle.
//===----------------------------------------------------------------------===

namespace {

/// Load buffering over non-atomics only. Racy, so promises stay on: at
/// budget 0 it has 5 outcomes, and promises add 4 more, ret(1,1) among them.
const char *const NaLoadBuffering =
    "na x, y;\n"
    "thread { a := y@na; x@na := 1; return a; }\n"
    "thread { b := x@na; y@na := 1; return b; }";

const unsigned Workers[] = {1, 2, 8};

/// Explores \p P with the lint on and, when the promise-free rule fired,
/// again with the lint off. Where the full run is exhaustive the two sets
/// must be identical and the skipped run exhaustive too; a truncated full
/// run (none in these sweeps) has nothing to compare against.
/// \returns whether the rule fired.
bool matchesFullEnumeration(const Program &P, PsConfig Cfg,
                            const std::string &What) {
  Cfg.Lint = true;
  // Deciding the rule runs only the lint: a program it does not fire on
  // costs no exploration here.
  if (effectivePsConfig(P, Cfg).Cfg.PromiseBudget == Cfg.PromiseBudget)
    return false;
  PsBehaviorSet Skipped = explorePsna(P, Cfg);
  EXPECT_TRUE(Skipped.PromisesSkipped) << What;
  Cfg.Lint = false;
  PsBehaviorSet Full = explorePsna(P, Cfg);
  EXPECT_FALSE(Full.PromisesSkipped) << What;
  std::string Where = What + " @p" + std::to_string(Cfg.PromiseBudget) +
                      " x" + std::to_string(Cfg.NumThreads);
  if (!Full.truncated()) {
    EXPECT_FALSE(Skipped.truncated())
        << Where << ": the skipped run truncates, the full run does not";
    EXPECT_EQ(Skipped.strs(), Full.strs()) << Where << "\n" << printProgram(P);
  }
  return true;
}

/// Runs matchesFullEnumeration over \p Progs at promise budgets 1 and 2,
/// each program at one worker count, rotating through 1/2/8.
/// \returns the number of (program, budget) pairs the rule fired on.
unsigned sweepPrograms(const std::vector<std::unique_ptr<Program>> &Progs,
                       const PsConfig &Base, const std::string &What) {
  unsigned Fired = 0;
  for (size_t I = 0; I != Progs.size(); ++I)
    for (unsigned Budget : {1u, 2u}) {
      PsConfig Cfg = Base;
      Cfg.PromiseBudget = Budget;
      Cfg.NumThreads = Workers[I % 3];
      Fired += matchesFullEnumeration(*Progs[I], Cfg,
                                      What + " #" + std::to_string(I));
    }
  return Fired;
}

/// Adds \p P to \p Out unless a program with the same text is already in.
void addDistinct(std::vector<std::unique_ptr<Program>> &Out,
                 std::set<std::string> &Seen, std::unique_ptr<Program> P) {
  if (Seen.insert(printProgram(*P)).second)
    Out.push_back(std::move(P));
}

/// \p Src and \p Tgt each composed with every applicable library context.
void addWithContexts(std::vector<std::unique_ptr<Program>> &Out,
                     std::set<std::string> &Seen, const Program &Src,
                     const Program &Tgt) {
  for (const ContextSpec &Ctx : contextLibrary()) {
    std::unique_ptr<Program> S = cloneProgram(Src);
    std::unique_ptr<Program> T = cloneProgram(Tgt);
    Ctx.Build(*S);
    Ctx.Build(*T);
    if (S->numThreads() != T->numThreads())
      continue; // the harness skips a context the layout cannot host
    addDistinct(Out, Seen, std::move(S));
    addDistinct(Out, Seen, std::move(T));
  }
}

} // namespace

TEST(PromiseFreeTest, NaLoadBufferingKeepsItsPromises) {
  // The lint condition: every write is non-atomic, so only the race
  // verdict keeps this program's promises.
  auto P = prog(NaLoadBuffering);
  PsBehaviorSet B0 = explorePsna(*P, cfg(0));
  EXPECT_EQ(B0.All.size(), 5u);
  EXPECT_FALSE(B0.containsStr("ret(1,1)"));
  for (unsigned W : Workers) {
    PsConfig C = cfg(1);
    C.NumThreads = W;
    PsBehaviorSet B1 = explorePsna(*P, C);
    ASSERT_TRUE(B1.Lint.has_value());
    EXPECT_EQ(*B1.Lint, analysis::RaceVerdict::PotentiallyRacy);
    EXPECT_FALSE(B1.PromisesSkipped) << "x" << W;
    EXPECT_EQ(B1.All.size(), 9u) << "x" << W;
    EXPECT_TRUE(B1.containsStr("ret(1,1)")) << "x" << W;
  }
}

TEST(PromiseFreeTest, RelaxedLoadBufferingKeepsItsPromises) {
  // The relaxed-write condition: lb-rlx has no non-atomic access, so the
  // lint passes it, and only its relaxed writes keep its promises.
  const LitmusCase &LC = litmusCaseByName("lb-rlx");
  auto P = prog(LC.Text);
  PsBehaviorSet B0 = explorePsna(*P, cfg(0));
  PsBehaviorSet B1 = explorePsna(*P, cfg(1));
  ASSERT_TRUE(B1.Lint.has_value());
  EXPECT_NE(*B1.Lint, analysis::RaceVerdict::PotentiallyRacy);
  EXPECT_FALSE(B1.PromisesSkipped);
  EXPECT_FALSE(B0.containsStr("ret(1,1)"));
  EXPECT_TRUE(B1.containsStr("ret(1,1)"));
}

TEST(PromiseFreeTest, CorporaMatchFullEnumeration) {
  // The litmus and RealWorld corpora plus the na-LB program, at budgets 1
  // and 2 and at 1/2/8 workers. The rule fires on the seven race-free
  // corpus programs without relaxed writes or RMWs: lb-rel, mp-rel-acq,
  // iriw-rel-acq, rw-spsc-ring, rw-rcu, rw-epoch and rw-futex.
  struct Case {
    std::string Name;
    std::unique_ptr<Program> P;
    PsConfig Cfg;
  };
  std::vector<Case> Cases;
  for (const LitmusCase &LC : litmusCorpus()) {
    PsConfig C;
    C.Domain = LC.Domain;
    C.SplitBudget = LC.SplitBudget;
    Cases.push_back({LC.Name, prog(LC.Text), C});
  }
  for (const RealWorldCase &RC : realWorldCorpus())
    Cases.push_back({RC.Name, prog(RC.Text), realWorldPsConfig(RC)});
  Cases.push_back({"na-lb", prog(NaLoadBuffering), PsConfig()});
  for (unsigned Budget : {1u, 2u})
    for (unsigned W : Workers) {
      std::vector<std::string> Fired;
      for (const Case &C : Cases) {
        PsConfig Cfg = C.Cfg;
        Cfg.PromiseBudget = Budget;
        Cfg.NumThreads = W;
        if (matchesFullEnumeration(*C.P, Cfg, C.Name))
          Fired.push_back(C.Name);
      }
      EXPECT_EQ(Fired, (std::vector<std::string>{
                           "lb-rel", "mp-rel-acq", "iriw-rel-acq",
                           "rw-spsc-ring", "rw-rcu", "rw-epoch", "rw-futex"}))
          << "@p" << Budget << " x" << W;
    }
}

TEST(PromiseFreeTest, AtlasAndAdequacyContextsMatchFullEnumeration) {
  // Every atlas template side and every refinement-corpus program, each
  // composed with every applicable adequacy context: the programs the
  // atlas and the adequacy suite explore.
  std::vector<std::unique_ptr<Program>> Atlas, Adequacy;
  std::set<std::string> Seen;
  for (const atlas::AtlasTemplate &T : atlas::enumerateTemplates()) {
    TemplateLayout L = templateLayout(T.Src, T.Tgt);
    addWithContexts(Atlas, Seen, *buildTemplateProgram(T.Src, L),
                    *buildTemplateProgram(T.Tgt, L));
  }
  for (const RefinementCase &RC : refinementCorpus())
    addWithContexts(Adequacy, Seen, *prog(RC.Src), *prog(RC.Tgt));
  EXPECT_GT(sweepPrograms(Atlas, PsConfig(), "atlas"), 1000u);
  EXPECT_GT(sweepPrograms(Adequacy, PsConfig(), "adequacy"), 300u);
}

TEST(PromiseFreeTest, RandomProgramsMatchFullEnumeration) {
  // Seeded 2- and 3-thread random programs: half follow a rel/acq
  // publication protocol the lint can prove race-free.
  std::vector<std::unique_ptr<Program>> Progs;
  Rng R(20261017);
  for (unsigned I = 0; I != 120; ++I)
    Progs.push_back(prog(randomConcurrentProgram(R, 2 + I % 2)));
  EXPECT_GT(sweepPrograms(Progs, PsConfig(), "random"), 80u);
}

//===- tests/sym_test.cpp - Symbolic refinement backend (E23) -------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Differential validation of the symbolic backend (src/sym) against the
// enumerative advanced checker: over the refinement + extension corpora,
// the transformation atlas shapes, RealWorld protocol threads, and random
// programs. The contract under test is soundness, not completeness —
//
//   * symbolic Sound   must never meet an enumerative counterexample,
//   * symbolic Unsound must carry an enumerative-confirmed witness,
//   * Inconclusive is always legal (but regressions in decision coverage
//     are pinned by the sym group of BENCH_BASELINE.json, which
//     tools/check_bench_baseline.py checks).
//
// Any disagreement is a hard test failure. The suite also pins the
// tentpole claim: spin-loop RealWorld threads where the enumerative
// checker can only return a truncated verdict are *decided* here.
//
//===----------------------------------------------------------------------===//

#include "adequacy/RandomProgram.h"
#include "guard/Guard.h"
#include "litmus/Corpus.h"
#include "litmus/RealWorld.h"
#include "memo/MemoContext.h"
#include "obs/Telemetry.h"
#include "seq/AdvancedRefinement.h"
#include "sym/SymEngine.h"
#include "sym/SymSolver.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <string>

using namespace pseq;
using sym::SymOptions;
using sym::SymResult;
using sym::SymVerdict;

namespace {

SeqConfig configFor(const RefinementCase &RC) {
  SeqConfig Cfg;
  Cfg.Domain = RC.Domain;
  Cfg.StepBudget = RC.StepBudget;
  return Cfg;
}

/// One differential comparison: runs both lanes and fails on any
/// soundness-relevant disagreement. \returns the symbolic result for
/// callers that want to assert more.
SymResult diffCheck(const Program &Src, const Program &Tgt, SeqConfig Cfg,
                    const std::string &What,
                    SymOptions Opts = SymOptions()) {
  SymResult S = sym::checkSymRefinement(Src, Tgt, Cfg, Opts);
  RefinementResult E = checkAdvancedRefinement(Src, Tgt, Cfg);
  if (S.Verdict == SymVerdict::Sound) {
    // A bounded enumerative positive cannot contradict us; an exact or
    // bounded *negative* carries a concrete counterexample and does.
    EXPECT_TRUE(E.Holds) << What
                         << ": symbolic Sound vs enumerative counterexample\n"
                         << E.Counterexample;
  } else if (S.Verdict == SymVerdict::Unsound) {
    EXPECT_FALSE(E.Holds && !E.Bounded)
        << What << ": symbolic Unsound vs exact enumerative Holds";
    EXPECT_FALSE(S.Witness.empty())
        << What << ": Unsound verdict must carry a confirmed witness";
  }
  return S;
}

} // namespace

//===----------------------------------------------------------------------===
// Smoke: the engine on the simplest possible inputs.
//===----------------------------------------------------------------------===

TEST(SymSmokeTest, TrivialIdentityIsSound) {
  auto P = prog("na x;\nthread { x@na := 1; a := x@na; return a; }");
  auto Q = prog("na x;\nthread { x@na := 1; a := x@na; return a; }");
  SymResult R = sym::checkSymRefinement(*P, *Q);
  EXPECT_EQ(R.Verdict, SymVerdict::Sound) << R.Witness;
  EXPECT_GT(R.InitialStates, 0u);
  EXPECT_GT(R.Nodes, 0u);
}

TEST(SymSmokeTest, ConstantReturnIsSound) {
  auto P = prog("na x;\nthread { return 1; }");
  auto Q = prog("na x;\nthread { return 1; }");
  SymResult R = sym::checkSymRefinement(*P, *Q);
  EXPECT_EQ(R.Verdict, SymVerdict::Sound) << R.Witness;
}

TEST(SymSmokeTest, DifferentConstantReturnIsUnsound) {
  auto P = prog("na x;\nthread { return 1; }");
  auto Q = prog("na x;\nthread { return 2; }");
  SymResult R = sym::checkSymRefinement(*P, *Q);
  EXPECT_EQ(R.Verdict, SymVerdict::Unsound) << R.Witness;
  EXPECT_FALSE(R.Witness.empty());
}

TEST(SymSmokeTest, UBSourceRefinesEverything) {
  auto Src = prog("na x;\nthread { abort; }");
  auto Tgt = prog("na x;\nthread { x@na := 1; a := x@na; return a; }");
  SymResult R = sym::checkSymRefinement(*Src, *Tgt);
  EXPECT_EQ(R.Verdict, SymVerdict::Sound) << R.Witness;
}

TEST(SymSmokeTest, RelaxedMessagePassingIdentity) {
  const char *Text = "atomic f; na d;\n"
                     "thread { d@na := 1; f@rel := 1; return 0; }";
  auto P = prog(Text);
  auto Q = prog(Text);
  SymResult R = sym::checkSymRefinement(*P, *Q);
  EXPECT_EQ(R.Verdict, SymVerdict::Sound) << R.Witness;
}

TEST(SymSmokeTest, RedundantLoadEliminationAgrees) {
  // Two adjacent relaxed reads collapsed into one. As *thread-local trace*
  // refinement this does not hold (the target emits one read label where
  // the source emits two), and the enumerative lane refutes it — the
  // symbolic lane must land on the same side, witness confirmed.
  auto Src = prog("atomic x;\n"
                  "thread { a := x@rlx; b := x@rlx; return a; }");
  auto Tgt = prog("atomic x;\n"
                  "thread { a := x@rlx; b := a; return a; }");
  SymResult R = diffCheck(*Src, *Tgt, SeqConfig(), "rle");
  EXPECT_EQ(R.Verdict, SymVerdict::Unsound) << R.Witness;
}

TEST(SymSmokeTest, SpinLoopSelfRefinementConverges) {
  // The canonical corpus flag-wait shape: an acquire spin loop. The
  // enumerative lane unrolls this to the step budget; path merging must
  // converge it to a handful of product nodes, and widening must keep
  // the node count independent of the step budget.
  const char *Text = "atomic f;\n"
                     "thread {\n"
                     "  a := f@acq; while (a != 1) { a := f@acq; }\n"
                     "  return a;\n"
                     "}";
  auto P = prog(Text);
  auto Q = prog(Text);
  SeqConfig Cfg;
  Cfg.StepBudget = 160; // corpus-scale budget; must not matter here
  SymResult R = sym::checkSymRefinement(*P, *Q, Cfg);
  EXPECT_EQ(R.Verdict, SymVerdict::Sound) << R.Witness;
  EXPECT_LT(R.Nodes, 4000u) << "spin loop failed to converge by merging";
}

//===----------------------------------------------------------------------===
// Differential sweep: refinement + extension corpora.
//===----------------------------------------------------------------------===

namespace {

class SymCorpusTest : public ::testing::TestWithParam<RefinementCase> {};

std::vector<RefinementCase> allRefinementCases() {
  std::vector<RefinementCase> All = refinementCorpus();
  const std::vector<RefinementCase> &Ext = extensionCorpus();
  All.insert(All.end(), Ext.begin(), Ext.end());
  return All;
}

std::string caseTestName(
    const ::testing::TestParamInfo<RefinementCase> &Info) {
  std::string Name = Info.param.Name;
  for (char &C : Name)
    if (!isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Name;
}

} // namespace

TEST_P(SymCorpusTest, AgreesWithEnumerativeLane) {
  const RefinementCase &RC = GetParam();
  auto Src = prog(RC.Src);
  auto Tgt = prog(RC.Tgt);
  ASSERT_TRUE(sameLayout(*Src, *Tgt)) << RC.Name;
  SymResult S = diffCheck(*Src, *Tgt, configFor(RC), RC.Name);
  // The corpus records the expected ⊑w verdict; the symbolic lane may
  // abstain but must never land on the other side of it.
  if (S.Verdict == SymVerdict::Sound) {
    EXPECT_TRUE(RC.AdvancedHolds)
        << RC.Name << ": symbolic Sound on a known-unsound pair";
  }
  if (S.Verdict == SymVerdict::Unsound) {
    EXPECT_FALSE(RC.AdvancedHolds)
        << RC.Name << ": symbolic Unsound on a known-sound pair\n"
        << S.Witness;
  }
}

TEST_P(SymCorpusTest, SelfRefinementNeverRefuted) {
  // Reflexivity: σ ⊑w σ always holds, so the symbolic verdict on a
  // self-pair is Sound or Inconclusive — never Unsound.
  const RefinementCase &RC = GetParam();
  auto Src = prog(RC.Src);
  auto Src2 = prog(RC.Src);
  SymResult S = sym::checkSymRefinement(*Src, *Src2, configFor(RC));
  EXPECT_NE(S.Verdict, SymVerdict::Unsound)
      << RC.Name << ": refuted reflexivity\n"
      << S.Witness;
}

INSTANTIATE_TEST_SUITE_P(Corpus, SymCorpusTest,
                         ::testing::ValuesIn(allRefinementCases()),
                         caseTestName);

//===----------------------------------------------------------------------===
// The tentpole claim: RealWorld spin-loop threads the enumerative lane
// truncates on are decided symbolically.
//===----------------------------------------------------------------------===

TEST(SymRealWorldTest, DecidesWhereEnumerativeTruncates) {
  unsigned DecidedWhereTruncated = 0;
  unsigned Checked = 0;
  for (const RealWorldCase &RC : realWorldCorpus()) {
    if (RC.IsMutant)
      continue;
    auto P = prog(RC.Text);
    for (unsigned Tid = 0; Tid != P->numThreads(); ++Tid) {
      ++Checked;
      // Symbolic lane: default budgets, but no enumerative confirm — on
      // these programs one confirm run costs more than the whole sweep,
      // and an unconfirmed negative is reported Inconclusive anyway.
      SeqConfig Cfg;
      Cfg.Domain = RC.Domain;
      SymOptions Opts;
      Opts.ConfirmUnsound = false;
      SymResult S = sym::checkSymRefinement(*P, Tid, *P, Tid, Cfg, Opts);
      // Enumerative lane: budgets shrunk so the spin-loop protocols
      // truncate in milliseconds rather than hours (the oracle-game
      // product is what explodes, so MaxBehaviors alone does not bound
      // wall-clock), plus a deadline guard as the backstop. This is the
      // point of the tentpole: at *any* budget the enumerative lane can
      // afford here, it truncates; the symbolic fixpoint closes.
      SeqConfig ECfg = Cfg;
      ECfg.StepBudget = 16;
      ECfg.MaxBehaviors = 500;
      guard::ResourceGuard G;
      G.setDeadlineInMs(3000);
      ECfg.Guard = &G;
      RefinementResult E = checkAdvancedRefinement(*P, Tid, *P, Tid, ECfg);
      // Self-refinement: neither lane may refute it.
      EXPECT_TRUE(E.Holds || E.Bounded) << RC.Name << " tid " << Tid;
      EXPECT_NE(S.Verdict, SymVerdict::Unsound)
          << RC.Name << " tid " << Tid << "\n"
          << S.Witness;
      if (E.Bounded && S.Verdict == SymVerdict::Sound)
        ++DecidedWhereTruncated;
    }
  }
  EXPECT_GT(Checked, 0u);
  // The acceptance floor: at least two protocol threads where the
  // enumerative checker can only produce a truncated verdict but the
  // symbolic fixpoint closes exhaustively. (Today it is seven: both
  // spsc-ring threads, the ms-queue consumers, both rcu threads, and
  // the epoch writer.)
  EXPECT_GE(DecidedWhereTruncated, 2u)
      << "symbolic lane no longer beats enumerative truncation";
}

//===----------------------------------------------------------------------===
// Random-program differential sweep at 1/2/8 workers.
//===----------------------------------------------------------------------===

namespace {

struct SweepStats {
  unsigned Pairs = 0;
  unsigned Sound = 0;
  unsigned Unsound = 0;
  unsigned Inconclusive = 0;
};

SweepStats randomSweep(uint64_t Seed, unsigned NumPairs,
                       unsigned NumThreads) {
  Rng R(Seed);
  SweepStats St;
  for (unsigned I = 0; I != NumPairs; ++I) {
    RandomPair RP = randomRefinementPair(R);
    auto Src = prog(RP.Src);
    auto Tgt = prog(RP.Tgt);
    SeqConfig Cfg;
    Cfg.NumThreads = NumThreads;
    SymResult S =
        diffCheck(*Src, *Tgt, Cfg,
                  "random pair #" + std::to_string(I) + " (seed " +
                      std::to_string(Seed) + ", " + RP.Mutation + ")\nsrc:\n" +
                      RP.Src + "tgt:\n" + RP.Tgt);
    ++St.Pairs;
    if (S.Verdict == SymVerdict::Sound)
      ++St.Sound;
    else if (S.Verdict == SymVerdict::Unsound)
      ++St.Unsound;
    else
      ++St.Inconclusive;
  }
  return St;
}

} // namespace

TEST(SymRandomSweepTest, Workers1) {
  SweepStats St = randomSweep(/*Seed=*/0x5eed0001, /*NumPairs=*/80,
                              /*NumThreads=*/1);
  EXPECT_EQ(St.Pairs, 80u);
  // The sweep must actually decide things, not abstain across the board.
  EXPECT_GT(St.Sound + St.Unsound, St.Pairs / 2)
      << "symbolic lane abstained on most random pairs";
}

TEST(SymRandomSweepTest, Workers2) {
  SweepStats St = randomSweep(/*Seed=*/0x5eed0002, /*NumPairs=*/80,
                              /*NumThreads=*/2);
  EXPECT_EQ(St.Pairs, 80u);
  EXPECT_GT(St.Sound + St.Unsound, St.Pairs / 2);
}

TEST(SymRandomSweepTest, Workers8) {
  SweepStats St = randomSweep(/*Seed=*/0x5eed0008, /*NumPairs=*/80,
                              /*NumThreads=*/8);
  EXPECT_EQ(St.Pairs, 80u);
  EXPECT_GT(St.Sound + St.Unsound, St.Pairs / 2);
}

//===----------------------------------------------------------------------===
// Service plumbing: telemetry, memoization, solver interface, options.
//===----------------------------------------------------------------------===

TEST(SymServiceTest, TelemetryCountersFire) {
  obs::Telemetry Telem;
  auto P = prog("na x;\nthread { x@na := 1; a := x@na; return a; }");
  auto Q = prog("na x;\nthread { x@na := 1; a := x@na; return a; }");
  SeqConfig Cfg;
  Cfg.Telem = &Telem;
  SymResult R = sym::checkSymRefinement(*P, *Q, Cfg);
  ASSERT_EQ(R.Verdict, SymVerdict::Sound) << R.Witness;
  EXPECT_EQ(Telem.Counters.counter("sym.checks"), 1u);
  EXPECT_EQ(Telem.Counters.counter("sym.sound"), 1u);
  EXPECT_GT(Telem.Counters.counter("sym.nodes"), 0u);

  auto U = prog("na x;\nthread { return 1; }");
  auto V = prog("na x;\nthread { return 2; }");
  SymResult R2 = sym::checkSymRefinement(*U, *V, Cfg);
  ASSERT_EQ(R2.Verdict, SymVerdict::Unsound);
  EXPECT_EQ(Telem.Counters.counter("sym.unsound"), 1u);
  EXPECT_EQ(Telem.Counters.counter("sym.confirm.runs"), 1u);
}

TEST(SymServiceTest, MemoizationHitsOnSecondRun) {
  memo::MemoContext Memo;
  obs::Telemetry Telem;
  const char *Text = "atomic f;\n"
                     "thread { a := f@acq; while (a != 1) { a := f@acq; }\n"
                     "  return a; }";
  auto P = prog(Text);
  auto Q = prog(Text);
  SeqConfig Cfg;
  Cfg.Memo = &Memo;
  Cfg.Telem = &Telem;
  SymResult R1 = sym::checkSymRefinement(*P, *Q, Cfg);
  SymResult R2 = sym::checkSymRefinement(*P, *Q, Cfg);
  EXPECT_EQ(R1.Verdict, R2.Verdict);
  EXPECT_EQ(R1.Nodes, R2.Nodes);
  EXPECT_EQ(Telem.Counters.counter("sym.memo.hits"), 1u);

  // A different ConfigSalt must not share the entry.
  SeqConfig Salted = Cfg;
  Salted.ConfigSalt = 1234;
  SymResult R3 = sym::checkSymRefinement(*P, *Q, Salted);
  EXPECT_EQ(R3.Verdict, R1.Verdict);
  EXPECT_EQ(Telem.Counters.counter("sym.memo.hits"), 1u);
}

TEST(SymServiceTest, BuiltinSolverDecidesIntervalCongruence) {
  auto Solver = sym::makeBuiltinSolver();
  ASSERT_NE(Solver, nullptr);
  EXPECT_STREQ(Solver->name(), "builtin");
  using analysis::AbsDom;
  // x ∈ [0,1] is satisfiable; x ∈ ⊥ is not.
  std::vector<sym::SymConstraint> Sat{{1, AbsDom::range(0, 1)}};
  EXPECT_EQ(Solver->checkSat(Sat), sym::SymSolver::Sat::Sat);
  std::vector<sym::SymConstraint> Unsat{{1, AbsDom::bottom()}};
  EXPECT_EQ(Solver->checkSat(Unsat), sym::SymSolver::Sat::Unsat);
}

TEST(SymServiceTest, ConfirmUnsoundOffReportsInconclusive) {
  auto P = prog("na x;\nthread { return 1; }");
  auto Q = prog("na x;\nthread { return 2; }");
  SymOptions Opts;
  Opts.ConfirmUnsound = false;
  SymResult R = sym::checkSymRefinement(*P, *Q, SeqConfig(), Opts);
  EXPECT_EQ(R.Verdict, SymVerdict::Inconclusive);
  EXPECT_FALSE(R.Witness.empty()) << "symbolic witness note expected";
}

TEST(SymServiceTest, TinyNodeBudgetIsInconclusiveNotWrong) {
  const char *Text = "atomic f;\n"
                     "thread { a := f@acq; while (a != 1) { a := f@acq; }\n"
                     "  return a; }";
  auto P = prog(Text);
  auto Q = prog(Text);
  SymOptions Opts;
  Opts.MaxNodes = 2;
  SymResult R = sym::checkSymRefinement(*P, *Q, SeqConfig(), Opts);
  EXPECT_EQ(R.Verdict, SymVerdict::Inconclusive);
  EXPECT_NE(R.Cause, TruncationCause::None);
}

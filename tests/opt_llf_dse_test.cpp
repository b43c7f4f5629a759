//===- tests/opt_llf_dse_test.cpp - LLF and DSE passes (E7/E8) ------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Appendix D's load-to-load forwarding (Fig. 8a) and backward dead-store
// elimination (Fig. 8b), with translation validation on every rewrite —
// including the •-token DSE across a release write, which only the
// advanced refinement accepts (Example 3.5).
//
//===----------------------------------------------------------------------===//

#include "opt/DseAnalysis.h"
#include "opt/LlfAnalysis.h"
#include "opt/Pipeline.h"

#include "lang/Printer.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace pseq;

//===----------------------------------------------------------------------===
// LLF (Fig. 8a)
//===----------------------------------------------------------------------===

TEST(LlfTest, ForwardsSecondLoad) {
  auto P = prog("na x;\nthread { a := x@na; b := x@na; return b; }");
  PassResult R = runLlfPass(*P);
  EXPECT_EQ(R.Rewrites, 1u);
  ValidationResult V = validateTransform(*P, *R.Prog);
  EXPECT_TRUE(V.Ok) << V.Counterexample;
  std::string Printed = printProgram(*R.Prog);
  EXPECT_NE(Printed.find("b := a;"), std::string::npos) << Printed;
}

TEST(LlfTest, ForwardsAcrossRelaxedAndRelease) {
  for (const char *Beta : {"y@rlx := 1;", "s := y@rlx;", "y@rel := 1;"}) {
    auto P = prog(std::string("na x; atomic y;\nthread { a := x@na; ") +
                  Beta + " b := x@na; return b; }");
    PassResult R = runLlfPass(*P);
    EXPECT_EQ(R.Rewrites, 1u) << "β = " << Beta;
    ValidationResult V = validateTransform(*P, *R.Prog);
    EXPECT_TRUE(V.Ok) << "β = " << Beta << ": " << V.Counterexample;
  }
}

TEST(LlfTest, BlockedByAcquire) {
  // An acquire may refresh the location's value (Fig. 8a clears all sets).
  auto P = prog("na x; atomic y;\n"
                "thread { a := x@na; s := y@acq; b := x@na; return b; }");
  EXPECT_EQ(runLlfPass(*P).Rewrites, 0u);
}

TEST(LlfTest, BlockedByInterveningWrite) {
  auto P = prog("na x;\n"
                "thread { a := x@na; x@na := 1; b := x@na; return b; }");
  EXPECT_EQ(runLlfPass(*P).Rewrites, 0u);
}

TEST(LlfTest, BlockedByRegisterClobber) {
  auto P = prog("na x;\n"
                "thread { a := x@na; a := 7; b := x@na; return a + b; }");
  EXPECT_EQ(runLlfPass(*P).Rewrites, 0u)
      << "the forwarding source was overwritten";
}

TEST(LlfTest, ReloadIntoSameRegisterIsLeftAlone) {
  auto P = prog("na x;\nthread { a := x@na; a := x@na; return a; }");
  // Forwarding a := a is a no-op; the pass declines.
  EXPECT_EQ(runLlfPass(*P).Rewrites, 0u);
}

TEST(LlfTest, JoinIsIntersection) {
  auto P = prog("na x;\n"
                "thread { c := choose; if (c == 1) { a := x@na; } "
                "else { skip; } b := x@na; return b; }");
  EXPECT_EQ(runLlfPass(*P).Rewrites, 0u)
      << "only one branch loaded x: the join must drop the register";
}

TEST(LlfTest, AnalysisExposesRegisterSets) {
  auto P = prog("na x;\n"
                "thread { a := x@na; b := x@na; c := x@na; return c; }");
  LlfAnalysisResult A = analyzeLlf(*P, 0);
  // The third load sees both a and b.
  unsigned MaxPop = 0;
  for (const auto &[S, Regs] : A.AtLoad)
    MaxPop = std::max(MaxPop,
                      static_cast<unsigned>(__builtin_popcountll(Regs)));
  EXPECT_EQ(MaxPop, 2u);
}

//===----------------------------------------------------------------------===
// DSE (Fig. 8b)
//===----------------------------------------------------------------------===

TEST(DseTest, EliminatesOverwrittenStore) {
  auto P = prog("na x;\nthread { x@na := 1; x@na := 2; return 0; }");
  PassResult R = runDsePass(*P);
  EXPECT_EQ(R.Rewrites, 1u);
  ValidationResult V = validateTransform(*P, *R.Prog);
  EXPECT_TRUE(V.Ok) << V.Counterexample;
}

TEST(DseTest, EliminatesAcrossRelaxedAndAcquire) {
  // Example 3.5's simple cases: γ ∈ {rlx read, rlx write, acq read}.
  for (const char *Gamma : {"s := y@rlx;", "y@rlx := 1;", "s := y@acq;"}) {
    auto P = prog(std::string("na x; atomic y;\nthread { x@na := 1; ") +
                  Gamma + " x@na := 2; return 0; }");
    PassResult R = runDsePass(*P);
    EXPECT_EQ(R.Rewrites, 1u) << "γ = " << Gamma;
    ValidationResult V = validateTransform(*P, *R.Prog);
    EXPECT_TRUE(V.Ok) << "γ = " << Gamma << ": " << V.Counterexample;
  }
}

TEST(DseTest, EliminatesAcrossReleaseNeedsAdvancedRefinement) {
  // Example 3.5's • case: sound, but beyond the simple refinement.
  auto P = prog("na x; atomic y;\n"
                "thread { x@na := 1; y@rel := 1; x@na := 2; return 0; }");
  PassResult R = runDsePass(*P);
  ASSERT_EQ(R.Rewrites, 1u);

  ValidationResult Advanced =
      validateTransform(*P, *R.Prog, SeqConfig(), ValidationMethod::Advanced);
  EXPECT_TRUE(Advanced.Ok) << Advanced.Counterexample;

  ValidationResult Simple =
      validateTransform(*P, *R.Prog, SeqConfig(), ValidationMethod::Simple);
  EXPECT_FALSE(Simple.Ok)
      << "the simple refinement must reject DSE across a release "
         "(Example 3.5) — if it passes, the checker lost precision";
}

TEST(DseTest, BlockedByReleaseAcquirePair) {
  auto P = prog("na x; atomic y, z;\n"
                "thread { x@na := 1; y@rel := 1; s := z@acq; x@na := 2; "
                "return 0; }");
  EXPECT_EQ(runDsePass(*P).Rewrites, 0u);
}

TEST(DseTest, BlockedByInterveningRead) {
  auto P = prog("na x;\n"
                "thread { x@na := 1; a := x@na; x@na := 2; return a; }");
  EXPECT_EQ(runDsePass(*P).Rewrites, 0u);
}

TEST(DseTest, LastStoreIsNeverDead) {
  auto P = prog("na x;\nthread { x@na := 1; return 0; }");
  EXPECT_EQ(runDsePass(*P).Rewrites, 0u)
      << "other threads may read the final store";
}

TEST(DseTest, FaultingOperandIsKept) {
  auto P = prog("na x;\n"
                "thread { r := 0; x@na := 1 / r; x@na := 2; return 0; }");
  EXPECT_EQ(runDsePass(*P).Rewrites, 0u)
      << "deleting the store would erase the division's UB";
}

TEST(DseTest, BranchesJoinConservatively) {
  auto P = prog("na x;\n"
                "thread { x@na := 1; c := choose; if (c == 1) "
                "{ x@na := 2; } else { a := x@na; } return 0; }");
  EXPECT_EQ(runDsePass(*P).Rewrites, 0u)
      << "the else branch reads x: ◦ ⊔ ⊤ = ⊤";
}

TEST(DseTest, BackwardTokensExposed) {
  auto P = prog("na x; atomic y;\n"
                "thread { x@na := 1; s := y@acq; x@na := 2; return 0; }");
  DseAnalysisResult A = analyzeDse(*P, 0);
  // The first store's after-token went ◦ → • through the acquire read
  // (backward), still eliminable.
  bool SawBullet = false;
  for (const auto &[S, T] : A.AtStore)
    if (T == DseToken::Bullet)
      SawBullet = true;
  EXPECT_TRUE(SawBullet);
  EXPECT_EQ(runDsePass(*P).Rewrites, 1u);
}

//===----------------------------------------------------------------------===
// Fence-mode ladders (atlas-derived): combined fences are both halves.
//===----------------------------------------------------------------------===

TEST(LlfTest, FenceLadderBlocksEveryAcquireContainingMode) {
  // Fig 8a's fence transfer keeps the known-value sets only across a lone
  // release fence; acq, acqrel and sc may all complete a release-acquire
  // pair and refresh the location, so the ladder must clear them.
  {
    auto P = prog("na x;\n"
                  "thread { a := x@na; fence @ rel; b := x@na; return b; }");
    PassResult R = runLlfPass(*P);
    EXPECT_EQ(R.Rewrites, 1u);
    ValidationResult V = validateTransform(*P, *R.Prog);
    EXPECT_TRUE(V.Ok) << V.Counterexample;
  }
  for (const char *Fence : {"fence @ acq;", "fence @ acqrel;", "fence @ sc;"}) {
    auto P = prog(std::string("na x;\nthread { a := x@na; ") + Fence +
                  " b := x@na; return b; }");
    EXPECT_EQ(runLlfPass(*P).Rewrites, 0u) << "fence = " << Fence;
  }
}

TEST(DseTest, FenceLadderBlocksCombinedModes) {
  // Backward Fig 8b walk: a lone acq fence leaves the store eliminable
  // (like the acquire read in BackwardTokensExposed), a lone rel fence is
  // Example 3.5's • case, but acqrel/sc are a whole release-acquire pair:
  // ◦ → (acq) • → (rel) ⊤. The ladder used to undo the halves in program
  // order, leaving • across a combined fence — this pins the fix.
  for (const char *Fence : {"fence @ acq;", "fence @ rel;"}) {
    auto P = prog(std::string("na x;\nthread { x@na := 1; ") + Fence +
                  " x@na := 2; return 0; }");
    PassResult R = runDsePass(*P);
    EXPECT_EQ(R.Rewrites, 1u) << "fence = " << Fence;
    ValidationResult V = validateTransform(*P, *R.Prog, SeqConfig(),
                                           ValidationMethod::Advanced);
    EXPECT_TRUE(V.Ok) << "fence = " << Fence << ": " << V.Counterexample;
  }
  for (const char *Fence : {"fence @ acqrel;", "fence @ sc;"}) {
    auto P = prog(std::string("na x;\nthread { x@na := 1; ") + Fence +
                  " x@na := 2; return 0; }");
    EXPECT_EQ(runDsePass(*P).Rewrites, 0u) << "fence = " << Fence;

    // The pre-fix rewrite is genuinely invalid: the fence's release half
    // publishes the pending store to any acquirer, so deleting it loses
    // an observable value.
    auto Bad = prog(std::string("na x;\nthread { skip; ") + Fence +
                    " x@na := 2; return 0; }");
    ValidationResult V = validateTransform(*P, *Bad, SeqConfig(),
                                           ValidationMethod::Advanced);
    EXPECT_FALSE(V.Ok) << "fence = " << Fence
                       << ": DSE across a combined fence must be rejected "
                          "(atlas fence ladder)";
  }
}

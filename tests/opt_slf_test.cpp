//===- tests/opt_slf_test.cpp - SLF analysis and pass (E6) ----------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Reproduces Fig. 4 exactly — the abstract tokens at each program point
// and the optimized output — and checks the Fig. 3 transfer function on
// targeted programs, with every rewrite translation-validated.
//
//===----------------------------------------------------------------------===//

#include "opt/Pipeline.h"
#include "opt/SlfAnalysis.h"

#include "lang/Printer.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace pseq;

namespace {

/// Finds the Nth non-atomic load statement of thread 0 (depth-first).
const Stmt *nthNaLoad(const Stmt *S, unsigned &N) {
  if (!S)
    return nullptr;
  switch (S->kind()) {
  case Stmt::Kind::Load:
    if (S->readMode() == ReadMode::NA && N-- == 0)
      return S;
    return nullptr;
  case Stmt::Kind::Seq:
    for (const Stmt *Kid : S->seq())
      if (const Stmt *Found = nthNaLoad(Kid, N))
        return Found;
    return nullptr;
  case Stmt::Kind::If:
    if (const Stmt *Found = nthNaLoad(S->thenStmt(), N))
      return Found;
    return nthNaLoad(S->elseStmt(), N);
  case Stmt::Kind::While:
    return nthNaLoad(S->body(), N);
  default:
    return nullptr;
  }
}

const Stmt *naLoad(const Program &P, unsigned Idx) {
  unsigned N = Idx;
  return nthNaLoad(P.thread(0).Body, N);
}

SeqConfig valCfg(ValueDomain D) {
  SeqConfig C;
  C.Domain = std::move(D);
  return C;
}

} // namespace

//===----------------------------------------------------------------------===
// Figure 4, end to end.
//===----------------------------------------------------------------------===

TEST(SlfTest, Figure4TokensAndRewrite) {
  auto P = prog("na x; atomic y;\n"
                "thread {\n"
                "  x@na := 42;\n"
                "  l := y@acq;\n"
                "  if (l == 0) {\n"
                "    a := x@na;\n"
                "    y@rel := 1;\n"
                "  } else { skip; }\n"
                "  b := x@na;\n"
                "  return b;\n"
                "}");

  SlfAnalysisResult A = analyzeSlf(*P, 0);

  // First load (inside the branch): x ↦ ◦(42) — the acquire read does not
  // disturb a ◦ token (no release since the write).
  const Stmt *LoadA = naLoad(*P, 0);
  ASSERT_NE(LoadA, nullptr);
  ASSERT_TRUE(A.AtLoad.count(LoadA));
  EXPECT_EQ(A.AtLoad.at(LoadA).str(), "circ(42)");

  // Second load (after the join): x ↦ •(42) — the release moved ◦ to •,
  // and the join of •(42) (then) with ◦(42) (else) is •(42).
  const Stmt *LoadB = naLoad(*P, 1);
  ASSERT_NE(LoadB, nullptr);
  ASSERT_TRUE(A.AtLoad.count(LoadB));
  EXPECT_EQ(A.AtLoad.at(LoadB).str(), "bullet(42)");

  // The pass rewrites both loads to `:= 42`.
  PassResult R = runSlfPass(*P);
  EXPECT_EQ(R.Rewrites, 2u);
  std::string Printed = printProgram(*R.Prog);
  EXPECT_EQ(Printed.find(":= x@na"), std::string::npos)
      << "no load of x must remain:\n"
      << Printed.substr(Printed.find("thread"));
  EXPECT_NE(Printed.find("a := 42;"), std::string::npos) << Printed;
  EXPECT_NE(Printed.find("b := 42;"), std::string::npos) << Printed;

  // Translation validation (the paper's Coq certificate stand-in).
  ValidationResult V =
      validateTransform(*P, *R.Prog, valCfg(ValueDomain({0, 1, 42})));
  EXPECT_TRUE(V.Ok) << V.Counterexample;
  EXPECT_FALSE(V.Bounded);
}

//===----------------------------------------------------------------------===
// Fig. 3 transfer function specifics.
//===----------------------------------------------------------------------===

TEST(SlfTest, ForwardsAcrossEveryNonPairAtomic) {
  // Example 2.11's four α shapes all keep the token forwardable.
  for (const char *Alpha :
       {"a := y@rlx;", "y@rlx := 1;", "a := y@acq;", "y@rel := 1;"}) {
    auto P = prog(std::string("na x; atomic y;\nthread { x@na := 1; ") +
                  Alpha + " b := x@na; return b; }");
    PassResult R = runSlfPass(*P);
    EXPECT_EQ(R.Rewrites, 1u) << "α = " << Alpha;
    ValidationResult V = validateTransform(*P, *R.Prog);
    EXPECT_TRUE(V.Ok) << "α = " << Alpha << ": " << V.Counterexample;
  }
}

TEST(SlfTest, BlocksAcrossReleaseAcquirePair) {
  // Example 2.12: ◦ → • (release) → ⊤ (acquire): no forwarding.
  auto P = prog("na x; atomic y, z;\n"
                "thread { x@na := 1; y@rel := 1; a := z@acq; b := x@na; "
                "return b; }");
  PassResult R = runSlfPass(*P);
  EXPECT_EQ(R.Rewrites, 0u);
}

TEST(SlfTest, InterveningWriteReplacesToken) {
  auto P = prog("na x;\n"
                "thread { x@na := 1; x@na := 2; b := x@na; return b; }");
  SlfAnalysisResult A = analyzeSlf(*P, 0);
  const Stmt *Load = naLoad(*P, 0);
  ASSERT_TRUE(A.AtLoad.count(Load));
  EXPECT_EQ(A.AtLoad.at(Load).str(), "circ(2)");
}

TEST(SlfTest, RegisterValueForwardingAndInvalidation) {
  // Stores of registers forward until the register is clobbered.
  auto P = prog("na x;\n"
                "thread { r := 5; x@na := r; a := x@na; r := 9; "
                "b := x@na; return a + b; }");
  SlfAnalysisResult A = analyzeSlf(*P, 0);
  EXPECT_EQ(A.AtLoad.at(naLoad(*P, 0)).kind(), SlfToken::Kind::Circ);
  EXPECT_TRUE(A.AtLoad.at(naLoad(*P, 1)).isTop())
      << "reassigning r must invalidate the ◦(r) token";

  PassResult R = runSlfPass(*P);
  EXPECT_EQ(R.Rewrites, 1u);
  ValidationResult V = validateTransform(
      *P, *R.Prog, valCfg(ValueDomain({0, 5, 9, 14})));
  EXPECT_TRUE(V.Ok) << V.Counterexample;
}

TEST(SlfTest, NonForwardableStoreYieldsTop) {
  auto P = prog("na x;\n"
                "thread { r := 1; x@na := r + 1; b := x@na; return b; }");
  SlfAnalysisResult A = analyzeSlf(*P, 0);
  EXPECT_TRUE(A.AtLoad.at(naLoad(*P, 0)).isTop());
  EXPECT_EQ(runSlfPass(*P).Rewrites, 0u);
}

TEST(SlfTest, BranchJoinWithDifferentValuesIsTop) {
  auto P = prog("na x;\n"
                "thread { c := choose; if (c == 1) { x@na := 1; } "
                "else { x@na := 2; } b := x@na; return b; }");
  SlfAnalysisResult A = analyzeSlf(*P, 0);
  EXPECT_TRUE(A.AtLoad.at(naLoad(*P, 0)).isTop())
      << "◦(1) ⊔ ◦(2) = ⊤";
}

TEST(SlfTest, LoopFixpointConvergesWithinThreeIterations) {
  auto P = prog("na x;\n"
                "thread {\n"
                "  x@na := 1;\n"
                "  c := choose;\n"
                "  while (c != 0) {\n"
                "    a := x@na;\n"
                "    x@na := 2;\n"
                "    c := choose;\n"
                "  }\n"
                "  b := x@na;\n"
                "  return b;\n"
                "}");
  SlfAnalysisResult A = analyzeSlf(*P, 0);
  EXPECT_LE(A.MaxLoopIterations, 3u) << "§4's termination claim";
  // In-loop load joins ◦(1) (entry) with ◦(2) (back edge): ⊤.
  EXPECT_TRUE(A.AtLoad.at(naLoad(*P, 0)).isTop());
}

TEST(SlfTest, RmwModesActLikeTheirParts) {
  // A release-mode RMW moves ◦ to •; an acquire-mode RMW then tops it.
  auto P = prog("na x; atomic z;\n"
                "thread { x@na := 1; r := fadd(z, 1) @ rlx rel; "
                "s := fadd(z, 1) @ acq rlx; b := x@na; return b; }");
  SlfAnalysisResult A = analyzeSlf(*P, 0);
  EXPECT_TRUE(A.AtLoad.at(naLoad(*P, 0)).isTop());

  auto P2 = prog("na x; atomic z;\n"
                 "thread { x@na := 1; r := fadd(z, 1) @ rlx rel; "
                 "b := x@na; return b; }");
  SlfAnalysisResult A2 = analyzeSlf(*P2, 0);
  EXPECT_EQ(A2.AtLoad.at(naLoad(*P2, 0)).str(), "bullet(1)");
}

TEST(SlfTest, FenceLadderTreatsCombinedModesAsBothHalves) {
  // The Fig 3 fence transfer is a mode *ladder* (`!= ACQ` applies the
  // release half, `!= REL` the acquire half), so acqrel and sc must act
  // as a whole release-acquire pair: ◦ → • → ⊤, no forwarding. A lone
  // acq fence completes no pair (◦ survives); a lone rel fence demotes
  // to • (still forwardable, like Example 3.5's release write).
  for (const char *Fence : {"fence @ acq;", "fence @ rel;"}) {
    auto P = prog(std::string("na x;\nthread { x@na := 1; ") + Fence +
                  " b := x@na; return b; }");
    PassResult R = runSlfPass(*P);
    EXPECT_EQ(R.Rewrites, 1u) << "fence = " << Fence;
    ValidationResult V = validateTransform(*P, *R.Prog, SeqConfig(),
                                           ValidationMethod::Advanced);
    EXPECT_TRUE(V.Ok) << "fence = " << Fence << ": " << V.Counterexample;
  }
  for (const char *Fence : {"fence @ acqrel;", "fence @ sc;"}) {
    auto P = prog(std::string("na x;\nthread { x@na := 1; ") + Fence +
                  " b := x@na; return b; }");
    EXPECT_EQ(runSlfPass(*P).Rewrites, 0u) << "fence = " << Fence;

    // The rewrite the ladder forbids really is invalid: forwarding across
    // the fence's built-in release-acquire pair loses the value the
    // acquire half may observe.
    auto Bad = prog(std::string("na x;\nthread { x@na := 1; ") + Fence +
                    " b := 1; return b; }");
    ValidationResult V = validateTransform(*P, *Bad, SeqConfig(),
                                           ValidationMethod::Advanced);
    EXPECT_FALSE(V.Ok) << "fence = " << Fence
                       << ": forwarding across a combined fence must be "
                          "rejected (atlas fence ladder)";
  }
}

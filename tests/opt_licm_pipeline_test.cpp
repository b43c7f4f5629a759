//===- tests/opt_licm_pipeline_test.cpp - LICM + pipeline (E9/E10/E16) ----===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// LICM (Example 1.3) via load introduction + LLF, the fixpoint-in-≤3-
// iterations claim, and the full four-pass pipeline with per-pass
// translation validation.
//
//===----------------------------------------------------------------------===//

#include "opt/LicmPass.h"
#include "opt/Pipeline.h"
#include "opt/SlfAnalysis.h"

#include "lang/Printer.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace pseq;

//===----------------------------------------------------------------------===
// LICM (Example 1.3)
//===----------------------------------------------------------------------===

TEST(LicmTest, HoistsLoopInvariantLoad) {
  auto P = prog("na x;\n"
                "thread {\n"
                "  c := choose;\n"
                "  while (c != 0) { a := x@na; c := choose; }\n"
                "  return 0;\n"
                "}");
  PassResult R = runLicmPass(*P);
  EXPECT_EQ(R.Rewrites, 2u) << "one introduced load + one forwarding";
  std::string Printed = printProgram(*R.Prog);
  // The load moved out of the loop; the body copies from the licm reg.
  size_t LoopPos = Printed.find("while");
  ASSERT_NE(LoopPos, std::string::npos);
  size_t LoadPos = Printed.find(":= x@na");
  ASSERT_NE(LoadPos, std::string::npos) << Printed;
  EXPECT_LT(LoadPos, LoopPos) << Printed;
  EXPECT_NE(Printed.find("a := licm$x;"), std::string::npos) << Printed;

  // Bounded validation (loops): the checker explores to its budget.
  SeqConfig Cfg;
  Cfg.Domain = ValueDomain::binary();
  Cfg.StepBudget = 18;
  ValidationResult V = validateTransform(*P, *R.Prog, Cfg);
  EXPECT_TRUE(V.Ok) << V.Counterexample;
}

TEST(LicmTest, DoesNotHoistWrittenLocation) {
  auto P = prog("na x;\n"
                "thread {\n"
                "  c := choose;\n"
                "  while (c != 0) { a := x@na; x@na := a + 1; c := choose; }\n"
                "  return 0;\n"
                "}");
  EXPECT_EQ(runLicmLoadIntroduction(*P).Rewrites, 0u);
}

TEST(LicmTest, DoesNotHoistAcrossAcquire) {
  auto P = prog("na x; atomic f;\n"
                "thread {\n"
                "  c := choose;\n"
                "  while (c != 0) { s := f@acq; a := x@na; c := choose; }\n"
                "  return 0;\n"
                "}");
  EXPECT_EQ(runLicmLoadIntroduction(*P).Rewrites, 0u)
      << "an acquire in the body refreshes memory";
}

TEST(LicmTest, HoistsFromNestedLoops) {
  auto P = prog("na x, y;\n"
                "thread {\n"
                "  c := choose;\n"
                "  while (c != 0) {\n"
                "    a := x@na;\n"
                "    d := choose;\n"
                "    while (d != 0) { b := y@na; d := choose; }\n"
                "    c := choose;\n"
                "  }\n"
                "  return 0;\n"
                "}");
  PassResult R = runLicmLoadIntroduction(*P);
  // Outer loop hoists both x and y (neither is written, no acquire);
  // nested structure is preserved.
  EXPECT_GE(R.Rewrites, 2u);
  std::string Printed = printProgram(*R.Prog);
  EXPECT_NE(Printed.find("licm$x"), std::string::npos) << Printed;
  EXPECT_NE(Printed.find("licm$y"), std::string::npos) << Printed;
}

TEST(LicmTest, LoadIntroductionAloneIsSound) {
  // Stage 1 in isolation is load introduction — the transformation that
  // catch-fire models forbid and SEQ validates (Example 2.8, Example 1.3).
  auto P = prog("na x;\n"
                "thread {\n"
                "  c := choose;\n"
                "  while (c != 0) { a := x@na; c := choose; }\n"
                "  return 0;\n"
                "}");
  PassResult R = runLicmLoadIntroduction(*P);
  ASSERT_EQ(R.Rewrites, 1u);
  SeqConfig Cfg;
  Cfg.Domain = ValueDomain::binary();
  Cfg.StepBudget = 18;
  ValidationResult V = validateTransform(*P, *R.Prog, Cfg);
  EXPECT_TRUE(V.Ok) << V.Counterexample;
}

//===----------------------------------------------------------------------===
// Fixpoint termination (E10)
//===----------------------------------------------------------------------===

TEST(FixpointTest, AllAnalysesConvergeWithinThreeIterationsOnLoops) {
  const char *Programs[] = {
      "na x;\nthread { c := choose; while (c != 0) { a := x@na; "
      "c := choose; } return 0; }",
      "na x;\nthread { x@na := 1; c := choose; while (c != 0) "
      "{ x@na := 2; a := x@na; c := choose; } b := x@na; return b; }",
      "na x, y; atomic f;\nthread { c := choose; while (c != 0) "
      "{ a := x@na; f@rel := 1; b := y@na; c := choose; } return 0; }",
      "na x;\nthread { c := choose; while (c != 0) { d := choose; "
      "while (d != 0) { a := x@na; d := choose; } c := choose; } "
      "return 0; }",
  };
  for (const char *Text : Programs) {
    auto P = prog(Text);
    EXPECT_LE(analyzeSlf(*P, 0).MaxLoopIterations, 3u) << Text;
  }
}

//===----------------------------------------------------------------------===
// Pipeline (E16)
//===----------------------------------------------------------------------===

TEST(PipelineTest, RunsAllFourPassesValidated) {
  auto P = prog("na x; atomic y;\n"
                "thread {\n"
                "  x@na := 1;\n"       // dead (overwritten below)
                "  x@na := 2;\n"
                "  a := x@na;\n"       // SLF -> a := 2
                "  b := x@na;\n"       // SLF -> b := 2
                "  y@rel := 1;\n"
                "  return a + b;\n"
                "}");
  PipelineOptions Opts;
  Opts.Cfg.Domain = ValueDomain({0, 1, 2, 4});
  PipelineResult R = runPipeline(*P, Opts);
  EXPECT_TRUE(R.AllValidated);
  EXPECT_GE(R.TotalRewrites, 3u);
  for (const PassReport &Rep : R.Reports)
    EXPECT_TRUE(Rep.Error.empty()) << Rep.Name << ": " << Rep.Error;

  std::string Printed = printProgram(*R.Prog);
  EXPECT_EQ(Printed.find("a := x@na"), std::string::npos) << Printed;
  EXPECT_EQ(Printed.find("x@na := 1"), std::string::npos) << Printed;
}

TEST(PipelineTest, SimulationMethodValidatesLicmExactly) {
  // With the Fig. 6 simulation as the certificate, the loop program's
  // validation is exact (not bounded) — like the paper's Coq proof.
  auto P = prog("na x;\n"
                "thread {\n"
                "  c := choose;\n"
                "  while (c != 0) { a := x@na; c := choose; }\n"
                "  return 0;\n"
                "}");
  PipelineOptions Opts;
  Opts.Method = ValidationMethod::Simulation;
  Opts.Cfg.Domain = ValueDomain::binary();
  PipelineResult R = runPipeline(*P, Opts);
  EXPECT_TRUE(R.AllValidated);
  bool LicmRan = false;
  for (const PassReport &Rep : R.Reports) {
    if (Rep.Name != "licm" || Rep.Rewrites == 0)
      continue;
    LicmRan = true;
    EXPECT_TRUE(Rep.Validated);
    EXPECT_FALSE(Rep.ValidationBounded)
        << "simulation must close the loop coinductively";
  }
  EXPECT_TRUE(LicmRan);
}

TEST(PipelineTest, TimesPassesWithTelemetryOff) {
  // OptMs, ValidateMs and TotalMs are results, not telemetry: an untraced
  // run (no Telemetry anywhere) still reports them.
  auto P = prog("na x;\n"
                "thread { x@na := 1; a := x@na; return a; }");
  PipelineOptions Opts;
  Opts.Cfg.Domain = ValueDomain({0, 1});
  ASSERT_EQ(Opts.Telem, nullptr);
  ASSERT_EQ(Opts.Cfg.Telem, nullptr);
  PipelineResult R = runPipeline(*P, Opts);
  bool Rewrote = false;
  for (const PassReport &Rep : R.Reports) {
    if (Rep.Rewrites == 0)
      continue;
    Rewrote = true;
    EXPECT_GT(Rep.OptMs, 0.0) << Rep.Name;
    EXPECT_GT(Rep.ValidateMs, 0.0) << Rep.Name;
  }
  EXPECT_TRUE(Rewrote);
  EXPECT_GT(R.TotalMs, 0.0);
}

TEST(PipelineTest, IdempotentOnOptimizedOutput) {
  auto P = prog("na x;\n"
                "thread { x@na := 1; a := x@na; b := x@na; return a + b; }");
  PipelineOptions Opts;
  Opts.Cfg.Domain = ValueDomain({0, 1, 2});
  PipelineResult First = runPipeline(*P, Opts);
  PipelineResult Second = runPipeline(*First.Prog, Opts);
  EXPECT_EQ(Second.TotalRewrites, 0u);
  EXPECT_TRUE(stmtStructurallyEquals(First.Prog->thread(0).Body,
                                     Second.Prog->thread(0).Body));
}

TEST(PipelineTest, LeavesAtomicsAlone) {
  // The paper deliberately performs no optimizations on atomics.
  auto P = prog("atomic y;\n"
                "thread { y@rlx := 1; a := y@rlx; y@rlx := 2; return a; }");
  PipelineResult R = runPipeline(*P);
  EXPECT_EQ(R.TotalRewrites, 0u);
  EXPECT_TRUE(stmtStructurallyEquals(P->thread(0).Body,
                                     R.Prog->thread(0).Body));
}

TEST(PipelineTest, OptimizesAllThreadsIndependently) {
  auto P = prog("na x, y;\n"
                "thread { x@na := 1; a := x@na; return a; }\n"
                "thread { y@na := 2; b := y@na; return b; }");
  PipelineOptions Opts;
  Opts.Cfg.Domain = ValueDomain({0, 1, 2});
  PipelineResult R = runPipeline(*P, Opts);
  EXPECT_TRUE(R.AllValidated);
  EXPECT_GE(R.TotalRewrites, 2u);
  std::string Printed = printProgram(*R.Prog);
  EXPECT_EQ(Printed.find(":= x@na"), std::string::npos) << Printed;
  EXPECT_EQ(Printed.find(":= y@na"), std::string::npos) << Printed;
}

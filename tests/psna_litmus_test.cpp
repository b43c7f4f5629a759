//===- tests/psna_litmus_test.cpp - Litmus outcomes (E11/E14/E15) ---------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Runs the PS^na explorer over the litmus corpus: Example 5.1, the
// Appendix B/C programs, and classic weak-memory shapes, asserting the
// paper's must-include / must-exclude outcome constraints.
//
//===----------------------------------------------------------------------===//

#include "litmus/Corpus.h"
#include "psna/Explorer.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace pseq;

namespace {

class PsLitmusTest : public ::testing::TestWithParam<LitmusCase> {};

} // namespace

namespace {

/// Asserts the case's must-include / must-exclude constraints and an
/// exhaustive exploration of \p P (the case's program) under \p Cfg.
void expectOutcomesMatchPaper(const LitmusCase &LC, const Program &P,
                              const PsConfig &Cfg) {
  PsBehaviorSet B = explorePsna(P, Cfg);

  std::string AllStr;
  for (const std::string &S : B.strs())
    AllStr += "  " + S + "\n";
  std::string Mode = Cfg.Lint ? "" : " [lint off]";

  for (const std::string &Want : LC.MustInclude)
    EXPECT_TRUE(B.containsStr(Want))
        << LC.Name << " (" << LC.PaperRef << ")" << Mode
        << ": missing outcome " << Want << "\nobserved:\n"
        << AllStr;
  for (const std::string &Forbidden : LC.MustExclude)
    EXPECT_FALSE(B.containsStr(Forbidden))
        << LC.Name << " (" << LC.PaperRef << ")" << Mode
        << ": forbidden outcome " << Forbidden << " observed\nall outcomes:\n"
        << AllStr;
  EXPECT_FALSE(B.truncated())
      << LC.Name << Mode
      << ": exploration must be exhaustive for litmus programs";
}

} // namespace

TEST_P(PsLitmusTest, OutcomesMatchPaper) {
  const LitmusCase &LC = GetParam();
  auto P = prog(LC.Text);
  PsConfig Cfg;
  Cfg.Domain = LC.Domain;
  Cfg.PromiseBudget = LC.PromiseBudget;
  Cfg.SplitBudget = LC.SplitBudget;
  expectOutcomesMatchPaper(LC, *P, Cfg);
  // Where the promise-free rule runs the case without promises, check the
  // constraints against full promise enumeration too (lint off).
  if (effectivePsConfig(*P, Cfg).Cfg.PromiseBudget != Cfg.PromiseBudget) {
    Cfg.Lint = false;
    expectOutcomesMatchPaper(LC, *P, Cfg);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LitmusCorpus, PsLitmusTest, ::testing::ValuesIn(litmusCorpus()),
    [](const ::testing::TestParamInfo<LitmusCase> &Info) {
      std::string Name = Info.param.Name;
      for (char &C : Name)
        if (!isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

//===- tests/advanced_verdicts_test.cpp - ⊑w verdicts and work ------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Locks every observable field of the advanced refinement checker (⊑w,
// Def 3.3) — verdict, Bounded bit, truncation cause, initial-state and
// target-behavior tallies, counterexample — over the refinement and
// extension corpora (loop cases included) and 200 seeded random pairs,
// against tests/golden/advanced-verdicts.expected. The rendering must be
// identical at 1 and 8 workers. Regenerate deliberately with
//
//   advanced_verdicts_test --update-golden   (or PSEQ_UPDATE_GOLDEN=1)
//
// and review the .expected diff like any other semantic change.
//
// Also pins the work the matcher's shared source graph saves: the ⊑w
// validation of the two bounded loop pipeline jobs asks the SEQ machine
// for at most 20,000 successor lists (one expansion per source state per
// initial state, instead of one per target behavior).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "adequacy/RandomProgram.h"
#include "litmus/Corpus.h"
#include "obs/Telemetry.h"
#include "opt/Pipeline.h"
#include "seq/AdvancedRefinement.h"

#include <gtest/gtest.h>

#include <string>

using namespace pseq;

#ifndef PSEQ_GOLDEN_DIR
#error "PSEQ_GOLDEN_DIR must point at tests/golden"
#endif

namespace {

constexpr unsigned RandomPairs = 200;
constexpr uint64_t RandomSeed = 2022;

std::string renderCheck(const std::string &Name, const std::string &SrcText,
                        const std::string &TgtText, SeqConfig Cfg) {
  auto Src = prog(SrcText);
  auto Tgt = prog(TgtText);
  RefinementResult R = checkAdvancedRefinement(*Src, *Tgt, Cfg);
  return Name + " holds=" + std::to_string(R.Holds) +
         " bounded=" + std::to_string(R.Bounded) +
         " cause=" + truncationCauseName(R.Cause) +
         " inits=" + std::to_string(R.InitialStates) +
         " tgt_behaviors=" + std::to_string(R.TgtBehaviors) + "\n" +
         "  cex: " + (R.Holds ? "-" : R.Counterexample) + "\n";
}

std::string renderAll(unsigned NumThreads) {
  std::string Out;
  for (const auto *Corpus : {&refinementCorpus(), &extensionCorpus()})
    for (const RefinementCase &RC : *Corpus) {
      SeqConfig Cfg;
      Cfg.Domain = RC.Domain;
      Cfg.StepBudget = RC.StepBudget;
      Cfg.NumThreads = NumThreads;
      Out += renderCheck(RC.Name, RC.Src, RC.Tgt, Cfg);
    }
  Rng R(RandomSeed);
  for (unsigned I = 0; I != RandomPairs; ++I) {
    RandomPair Pair = randomRefinementPair(R);
    SeqConfig Cfg;
    Cfg.Domain = ValueDomain::binary();
    Cfg.NumThreads = NumThreads;
    Out += renderCheck("rand-" + std::to_string(I) + " (" + Pair.Mutation +
                           ")",
                       Pair.Src, Pair.Tgt, Cfg);
  }
  return Out;
}

} // namespace

TEST(AdvancedVerdictsTest, GoldenAtOneAndEightWorkers) {
  std::string One = renderAll(1);
  EXPECT_TRUE(matchesGolden(PSEQ_GOLDEN_DIR, "advanced-verdicts", One));
  EXPECT_EQ(One, renderAll(8)) << "⊑w results diverged at 8 workers";
}

TEST(SourceGraphTest, LoopPipelinesExpandEachSourceStateOnce) {
  // The valbench pipeline job's options for the two loop cases it runs at
  // step budget 24, validated by ⊑w. Rebuilding the source graph per target
  // behavior makes 136,576 (ex1.3-licm) and 201,201
  // (ex2.7-partial-trace-variant) calls.
  for (const char *Name : {"ex1.3-licm", "ex2.7-partial-trace-variant"}) {
    const RefinementCase *RC = nullptr;
    for (const RefinementCase &C : refinementCorpus())
      if (C.Name == Name)
        RC = &C;
    ASSERT_NE(RC, nullptr) << Name;
    auto P = prog(RC->Src);
    obs::Telemetry Telem;
    PipelineOptions Opts;
    Opts.Validate = true;
    Opts.Method = ValidationMethod::Advanced; // the ⊑w matcher, not the default
    Opts.Cfg.StepBudget = 24;
    Opts.EnableConstProp = true;
    Opts.NumThreads = 1;
    Opts.Telem = &Telem;
    runPipeline(*P, Opts);
    const auto &C = Telem.Counters.counters();
    ASSERT_TRUE(C.count("seq.machine.successor_calls")) << Name;
    EXPECT_LE(C.at("seq.machine.successor_calls"), 20000u) << Name;
    EXPECT_GT(C.at("seq.match.behaviors"), 0u) << Name;
  }
}

int main(int Argc, char **Argv) {
  pseq::handleUpdateGoldenFlag(Argc, Argv);
  ::testing::InitGoogleTest(&Argc, Argv);
  return RUN_ALL_TESTS();
}

//===- tests/simulation_verdicts_test.cpp - Fig 6 verdicts and work -------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Locks every observable field of the Fig. 6 simulation checker — verdict,
// Complete bit, truncation cause, product-node count, counterexample — over
// the refinement and extension corpora (loop cases included) and 200 seeded
// random pairs at 1 and 8 workers, plus the self-simulation of every
// RealWorld protocol thread at 1 worker, against
// tests/golden/simulation-verdicts.expected. The corpus rendering must be
// identical at 1 and 8 workers. Regenerate deliberately with
//
//   simulation_verdicts_test --update-golden   (or PSEQ_UPDATE_GOLDEN=1)
//
// and review the .expected diff like any other semantic change.
//
// Also pins what the pipeline gains from validating with the simulation:
// the loop jobs that ⊑w could only bound are decided exactly, with a capped
// number of SEQ successor calls.
//
// And it turns the equivalence of the simulation and ⊑w
// (refinement_implies_simulation / simulation_implies_refinement in the
// paper's Coq development) into a differential check over the two
// committed verdict goldens: wherever ⊑w is exhaustive, both agree.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "adequacy/RandomProgram.h"
#include "litmus/Corpus.h"
#include "guard/Guard.h"
#include "litmus/RealWorld.h"
#include "obs/Telemetry.h"
#include "opt/Pipeline.h"
#include "seq/Simulation.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

using namespace pseq;

#ifndef PSEQ_GOLDEN_DIR
#error "PSEQ_GOLDEN_DIR must point at tests/golden"
#endif

namespace {

constexpr unsigned RandomPairs = 200;
constexpr uint64_t RandomSeed = 2022;

std::string renderResult(const std::string &Name, const SimulationResult &R) {
  return Name + " holds=" + std::to_string(R.Holds) +
         " complete=" + std::to_string(R.Complete) +
         " cause=" + truncationCauseName(R.Cause) +
         " nodes=" + std::to_string(R.ProductNodes) + "\n" +
         "  cex: " + (R.Holds ? "-" : R.Counterexample) + "\n";
}

std::string renderCheck(const std::string &Name, const std::string &SrcText,
                        const std::string &TgtText, SeqConfig Cfg) {
  auto Src = prog(SrcText);
  auto Tgt = prog(TgtText);
  return renderResult(Name, checkSimulation(*Src, *Tgt, Cfg));
}

std::string renderPairs(unsigned NumThreads) {
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

/// Every RealWorld protocol thread against itself, at default budgets.
std::string renderRealWorld() {
  std::string Out;
  for (const RealWorldCase &RC : realWorldCorpus()) {
    if (RC.IsMutant)
      continue;
    auto P = prog(RC.Text);
    for (unsigned Tid = 0; Tid != P->numThreads(); ++Tid) {
      SeqConfig Cfg;
      Cfg.Domain = RC.Domain;
      Cfg.NumThreads = 1;
      Out += renderResult(RC.Name + " tid " + std::to_string(Tid),
                          checkSimulation(*P, Tid, *P, Tid, Cfg));
    }
  }
  return Out;
}

/// Reads tests/golden/<Name>.expected into case name → {field → value}.
/// A row line is `<case name> holds=H key=value ...`; the `  cex:` lines
/// are skipped.
std::map<std::string, std::map<std::string, std::string>>
readGoldenRows(const std::string &Name) {
  std::ifstream In(std::string(PSEQ_GOLDEN_DIR) + "/" + Name + ".expected");
  EXPECT_TRUE(In) << "missing golden " << Name;
  std::map<std::string, std::map<std::string, std::string>> Rows;
  for (std::string Line; std::getline(In, Line);) {
    if (Line.rfind("  ", 0) == 0)
      continue;
    const size_t H = Line.find(" holds=");
    if (H == std::string::npos) {
      ADD_FAILURE() << Name << ": malformed row: " << Line;
      continue;
    }
    auto &Fields = Rows[Line.substr(0, H)];
    EXPECT_TRUE(Fields.empty()) << Name << ": duplicate " << Line;
    std::istringstream Rest(Line.substr(H + 1));
    for (std::string KV; Rest >> KV;)
      if (size_t Eq = KV.find('='); Eq != std::string::npos)
        Fields[KV.substr(0, Eq)] = KV.substr(Eq + 1);
  }
  return Rows;
}

} // namespace

TEST(SimulationVerdictsTest, GoldenAtOneAndEightWorkers) {
  std::string One = renderPairs(1);
  EXPECT_TRUE(matchesGolden(PSEQ_GOLDEN_DIR, "simulation-verdicts",
                            One + renderRealWorld()));
  EXPECT_EQ(One, renderPairs(8)) << "simulation results diverged at 8 workers";
}

TEST(SimulationPipelineTest, LoopPipelinesDecide) {
  // The valbench pipeline job's options (5 s / 512 MB guard, ConstProp on,
  // one worker) at its full step budget, on the loop programs that ⊑w
  // validation could only bound there (about 2–3 s each under ⊑w, with
  // 373k–747k successor calls). The caps are the simulation's exact
  // successor-call counts; asking the machine for target steps once per
  // product node instead of once per target state exceeds all three.
  struct LoopJob {
    const char *Name;
    std::string Src;
    uint64_t MaxSuccessorCalls;
  };
  const LoopJob Jobs[] = {
      {"ex1.3-licm", refinementCaseByName("ex1.3-licm").Src, 630},
      {"ex2.7-partial-trace-variant",
       refinementCaseByName("ex2.7-partial-trace-variant").Src, 194},
      {"rw-spsc-ring-rlx-publish",
       realWorldCaseByName("rw-spsc-ring-rlx-publish").Text, 6270}};
  for (const LoopJob &J : Jobs) {
    auto P = prog(J.Src);
    guard::ResourceGuard Guard;
    Guard.setDeadlineInMs(5000);
    Guard.setMemLimitBytes(uint64_t(512) << 20);
    obs::Telemetry Telem;
    PipelineOptions Opts;
    Opts.Validate = true;
    Opts.Cfg.StepBudget = 48;
    Opts.EnableConstProp = true;
    Opts.NumThreads = 1;
    Opts.ShrinkFailures = false;
    Opts.Guard = &Guard;
    Opts.Telem = &Telem;
    PipelineResult R = runPipeline(*P, Opts);
    unsigned Rewriting = 0;
    for (const PassReport &PR : R.Reports) {
      if (PR.Rewrites == 0)
        continue;
      ++Rewriting;
      EXPECT_TRUE(PR.Validated) << J.Name << " " << PR.Name << ": "
                                << PR.Error;
      EXPECT_FALSE(PR.ValidationBounded)
          << J.Name << " " << PR.Name << ": "
          << truncationCauseName(PR.ValidationCause);
    }
    EXPECT_GT(Rewriting, 0u) << J.Name;
    const auto &C = Telem.Counters.counters();
    ASSERT_TRUE(C.count("seq.machine.successor_calls")) << J.Name;
    EXPECT_LE(C.at("seq.machine.successor_calls"), J.MaxSuccessorCalls)
        << J.Name;
  }
}

TEST(SimulationEquivalenceTest, AgreesWithWeakRefinementWhereExhaustive) {
  // The committed goldens share both corpora and the same 200 random pairs
  // (257 names); the simulation golden adds the RealWorld threads. ⊑w is
  // bounded (step budget) on 4 shared loop rows, and the simulation is
  // complete on every row, so 253 rows are compared.
  const auto Weak = readGoldenRows("advanced-verdicts");
  const auto Sim = readGoldenRows("simulation-verdicts");
  unsigned Shared = 0, Compared = 0;
  for (const auto &[Name, W] : Weak) {
    auto It = Sim.find(Name);
    if (It == Sim.end())
      continue;
    ++Shared;
    if (W.at("bounded") != "0" || It->second.at("complete") != "1")
      continue;
    ++Compared;
    EXPECT_EQ(W.at("holds"), It->second.at("holds"))
        << Name << ": ⊑w and the Fig. 6 simulation disagree";
  }
  EXPECT_EQ(Shared, 257u);
  EXPECT_EQ(Compared, 257u - 4u);
}

int main(int Argc, char **Argv) {
  pseq::handleUpdateGoldenFlag(Argc, Argv);
  ::testing::InitGoogleTest(&Argc, Argv);
  return RUN_ALL_TESTS();
}

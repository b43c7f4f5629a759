//===- bench/bench_refine_examples.cpp - E3/E4/E5: verdict table ----------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Regenerates the paper's per-example verdicts while measuring the cost of
// the simple (Def 2.4) versus advanced (Def 3.3) decision procedures — the
// ablation DESIGN.md calls out: the advanced notion's oracle game is only
// needed for a handful of transformations and costs more.
//
// Counters: verdict (1 = holds), expected verdict, target behaviors.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "litmus/Corpus.h"
#include "seq/AdvancedRefinement.h"
#include "seq/Simulation.h"
#include "seq/SimpleRefinement.h"

#include "BenchSupport.h"

#include <benchmark/benchmark.h>

using namespace pseq;

namespace {

void runCase(benchmark::State &State, const RefinementCase &RC,
             bool Advanced) {
  std::unique_ptr<Program> Src = parseOrDie(RC.Src);
  std::unique_ptr<Program> Tgt = parseOrDie(RC.Tgt);
  SeqConfig Cfg;
  Cfg.Domain = RC.Domain;
  Cfg.StepBudget = RC.StepBudget;
  Cfg.Telem = benchsupport::telemetry();
  Cfg.NumThreads = benchsupport::numThreads();
  Cfg.Guard = benchsupport::resourceGuard();

  RefinementResult R;
  for (auto _ : State) {
    R = Advanced ? checkAdvancedRefinement(*Src, *Tgt, Cfg)
                 : checkSimpleRefinement(*Src, *Tgt, Cfg);
    benchmark::ClobberMemory();
  }
  State.counters["holds"] = R.Holds;
  State.counters["expected"] = Advanced ? RC.AdvancedHolds : RC.SimpleHolds;
  State.counters["tgt_behaviors"] = static_cast<double>(R.TgtBehaviors);
}

void runSimCase(benchmark::State &State, const RefinementCase &RC) {
  std::unique_ptr<Program> Src = parseOrDie(RC.Src);
  std::unique_ptr<Program> Tgt = parseOrDie(RC.Tgt);
  SeqConfig Cfg;
  Cfg.Domain = RC.Domain;
  Cfg.StepBudget = RC.StepBudget;
  Cfg.Telem = benchsupport::telemetry();
  Cfg.NumThreads = benchsupport::numThreads();
  Cfg.Guard = benchsupport::resourceGuard();
  SimulationResult R;
  for (auto _ : State) {
    R = checkSimulation(*Src, *Tgt, Cfg);
    benchmark::ClobberMemory();
  }
  State.counters["holds"] = R.Holds;
  State.counters["expected"] = RC.AdvancedHolds;
  State.counters["product_nodes"] = static_cast<double>(R.ProductNodes);
}

void registerCorpus(const std::vector<RefinementCase> &Corpus) {
  for (const RefinementCase &RC : Corpus) {
    benchmark::RegisterBenchmark(("simple/" + RC.Name).c_str(),
                                 [&RC](benchmark::State &S) {
                                   runCase(S, RC, /*Advanced=*/false);
                                 });
    benchmark::RegisterBenchmark(("advanced/" + RC.Name).c_str(),
                                 [&RC](benchmark::State &S) {
                                   runCase(S, RC, /*Advanced=*/true);
                                 });
    benchmark::RegisterBenchmark(
        ("simulation/" + RC.Name).c_str(),
        [&RC](benchmark::State &S) { runSimCase(S, RC); });
  }
}

void registerAll() {
  registerCorpus(refinementCorpus());
  registerCorpus(extensionCorpus());
}

} // namespace

int main(int argc, char **argv) {
  registerAll();
  return benchsupport::benchMain(argc, argv);
}

//===- bench/bench_psna_explore.cpp - E11/E14/E15: PS^na exploration ------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Measures exhaustive PS^na exploration over the litmus corpus, with the
// two ablations DESIGN.md calls out:
//   * promise budget 0/1/2 — which outcomes need promises (Example 5.1);
//   * timestamp normalization on/off — how many order-isomorphic states
//     the ranking abstraction merges.
//
// Counters: states explored, distinct behaviors.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "litmus/Corpus.h"
#include "psna/Explorer.h"

#include "BenchSupport.h"

#include <benchmark/benchmark.h>

using namespace pseq;

namespace {

void runLitmus(benchmark::State &State, const LitmusCase &LC,
               unsigned PromiseBudget, bool Normalize) {
  std::unique_ptr<Program> P = parseOrDie(LC.Text);
  PsConfig Cfg;
  Cfg.Domain = LC.Domain;
  Cfg.PromiseBudget = PromiseBudget;
  Cfg.SplitBudget = LC.SplitBudget;
  Cfg.Normalize = Normalize;
  Cfg.Telem = benchsupport::telemetry();
  Cfg.NumThreads = benchsupport::numThreads();
  Cfg.Guard = benchsupport::resourceGuard();
  Cfg.Memo = benchsupport::memoContext();

  PsBehaviorSet B;
  for (auto _ : State) {
    B = explorePsna(*P, Cfg);
    benchmark::ClobberMemory();
  }
  State.counters["states"] = static_cast<double>(B.StatesExplored);
  State.counters["behaviors"] = static_cast<double>(B.All.size());
  State.counters["truncated"] = B.truncated();
}

void registerAll() {
  // Promise-budget sweep on the promise-sensitive cases, plus the corpus
  // cases whose budget-2 runs cost the most certification work
  // (EXPERIMENTS.md "Certification table").
  for (const char *Name :
       {"ex5.1-promise-racy-read", "lb-rlx", "lb-rel", "iriw-rel-acq",
        "appB-split-writes", "2+2w-rlx"}) {
    const LitmusCase &LC = litmusCaseByName(Name);
    for (unsigned Budget : {0u, 1u, 2u}) {
      std::string Id = std::string("promises/") + Name + "/budget:" +
                       std::to_string(Budget);
      benchmark::RegisterBenchmark(
          Id.c_str(), [&LC, Budget](benchmark::State &S) {
            runLitmus(S, LC, Budget, /*Normalize=*/true);
          });
    }
  }

  // Normalization ablation across the whole corpus (at corpus budgets).
  for (const LitmusCase &LC : litmusCorpus()) {
    for (bool Normalize : {true, false}) {
      std::string Id = std::string("normalize/") + LC.Name +
                       (Normalize ? "/on" : "/off");
      benchmark::RegisterBenchmark(
          Id.c_str(), [&LC, Normalize](benchmark::State &S) {
            runLitmus(S, LC, LC.PromiseBudget, Normalize);
          });
    }
  }
}

} // namespace

int main(int argc, char **argv) {
  registerAll();
  return benchsupport::benchMain(argc, argv);
}

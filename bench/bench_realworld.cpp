//===- bench/bench_realworld.cpp - RealWorld corpus exploration -----------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Measures exhaustive PS^na exploration of every real-world protocol case
// (litmus/RealWorld.h) under its own corpus budgets, plus a whole-corpus
// sweep reporting the corpus states/sec rate.
//
// Counters: states explored, distinct behaviors, states/sec (corpus
// sweep), truncation (must stay 0 — a truncated bench run measures the
// budget, not the corpus).
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "litmus/RealWorld.h"
#include "psna/Explorer.h"

#include "BenchSupport.h"

#include <benchmark/benchmark.h>

using namespace pseq;

namespace {

PsConfig benchConfig(const RealWorldCase &RC) {
  PsConfig Cfg = realWorldPsConfig(RC);
  Cfg.Telem = benchsupport::telemetry();
  Cfg.NumThreads = benchsupport::numThreads();
  Cfg.Guard = benchsupport::resourceGuard();
  Cfg.Memo = benchsupport::memoContext();
  return Cfg;
}

void runCase(benchmark::State &State, const RealWorldCase &RC) {
  std::unique_ptr<Program> P = parseOrDie(RC.Text);
  PsConfig Cfg = benchConfig(RC);
  PsBehaviorSet B;
  for (auto _ : State) {
    B = explorePsna(*P, Cfg);
    benchmark::ClobberMemory();
  }
  State.counters["states"] = static_cast<double>(B.StatesExplored);
  State.counters["behaviors"] = static_cast<double>(B.All.size());
  State.counters["truncated"] = B.truncated();
}

void runCorpusSweep(benchmark::State &State) {
  uint64_t States = 0;
  unsigned Truncated = 0;
  for (auto _ : State) {
    States = 0;
    Truncated = 0;
    for (const RealWorldCase &RC : realWorldCorpus()) {
      std::unique_ptr<Program> P = parseOrDie(RC.Text);
      PsBehaviorSet B = explorePsna(*P, benchConfig(RC));
      States += B.StatesExplored;
      Truncated += B.truncated();
    }
    benchmark::ClobberMemory();
  }
  State.counters["states"] = static_cast<double>(States);
  State.counters["truncated"] = static_cast<double>(Truncated);
  State.counters["cases"] =
      static_cast<double>(realWorldCorpus().size());
  // states/sec over the whole corpus: the throughput figure the bench
  // baseline tracks.
  State.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(States) * State.iterations(),
      benchmark::Counter::kIsRate);
}

void registerAll() {
  for (const RealWorldCase &RC : realWorldCorpus()) {
    std::string Id = std::string("explore/") + RC.Name;
    benchmark::RegisterBenchmark(Id.c_str(),
                                 [&RC](benchmark::State &S) { runCase(S, RC); });
  }
  benchmark::RegisterBenchmark("corpus/sweep", runCorpusSweep);
}

} // namespace

int main(int argc, char **argv) {
  registerAll();
  return benchsupport::benchMain(argc, argv);
}

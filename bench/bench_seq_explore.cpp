//===- bench/bench_seq_explore.cpp - E1/E2: SEQ enumeration ---------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Measures exhaustive SEQ behavior enumeration (Def 2.1) as program size,
// value-domain size, and footprint grow — the raw engine underneath both
// refinement checkers. Counters report behaviors and initial states.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "seq/BehaviorEnum.h"
#include "seq/SimpleRefinement.h"

#include "BenchSupport.h"

#include <benchmark/benchmark.h>

using namespace pseq;

namespace {

std::string straightLine(unsigned Stores, unsigned Loads, bool WithAtomics) {
  std::string Out = "na x; atomic y;\nthread {\n";
  for (unsigned I = 0; I != Stores; ++I) {
    Out += "  x@na := " + std::to_string(I % 2) + ";\n";
    if (WithAtomics)
      Out += I % 2 ? "  y@rel := 1;\n" : "  s := y@acq;\n";
  }
  for (unsigned I = 0; I != Loads; ++I)
    Out += "  a" + std::to_string(I) + " := x@na;\n";
  Out += "  return a0;\n}";
  return Out;
}

void runEnum(benchmark::State &State, const std::string &Text,
             ValueDomain Domain) {
  std::unique_ptr<Program> P = parseOrDie(Text);
  SeqConfig Cfg;
  Cfg.Domain = std::move(Domain);
  Cfg.Universe = P->naLocs();
  Cfg.Telem = benchsupport::telemetry();
  Cfg.NumThreads = benchsupport::numThreads();
  Cfg.Guard = benchsupport::resourceGuard();
  SeqMachine M(*P, 0, Cfg);
  std::vector<SeqState> Inits = enumerateInitialStates(M);

  unsigned long long Behaviors = 0;
  for (auto _ : State) {
    Behaviors = 0;
    // Batch across initial states so the pool parallelizes across them.
    for (const BehaviorSet &B : enumerateBehaviorsBatch(M, Inits))
      Behaviors += B.All.size();
    benchmark::ClobberMemory();
  }
  State.counters["behaviors"] = static_cast<double>(Behaviors);
  State.counters["initial_states"] = static_cast<double>(Inits.size());
}

void BM_SeqEnum_NonAtomic(benchmark::State &State) {
  runEnum(State,
          straightLine(static_cast<unsigned>(State.range(0)),
                       /*Loads=*/2, /*WithAtomics=*/false),
          ValueDomain::binary());
}
BENCHMARK(BM_SeqEnum_NonAtomic)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_SeqEnum_WithAtomics(benchmark::State &State) {
  runEnum(State,
          straightLine(static_cast<unsigned>(State.range(0)),
                       /*Loads=*/2, /*WithAtomics=*/true),
          ValueDomain::binary());
}
BENCHMARK(BM_SeqEnum_WithAtomics)->Arg(1)->Arg(2)->Arg(3);

void BM_SeqEnum_DomainSize(benchmark::State &State) {
  runEnum(State, straightLine(2, 2, /*WithAtomics=*/true),
          ValueDomain::upTo(State.range(0)));
}
BENCHMARK(BM_SeqEnum_DomainSize)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

// Example 2.2's exact program, as a fixed reference point.
void BM_SeqEnum_Example22(benchmark::State &State) {
  runEnum(State,
          "atomic x; na y;\nthread { x@rlx := 1; y@na := 2; return 3; }",
          ValueDomain({1, 2, 3}));
}
BENCHMARK(BM_SeqEnum_Example22);

} // namespace

int main(int argc, char **argv) {
  return benchsupport::benchMain(argc, argv);
}

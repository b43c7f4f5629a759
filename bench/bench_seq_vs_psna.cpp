//===- bench/bench_seq_vs_psna.cpp - E17: why sequential reasoning --------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// The paper's thesis, quantified: validating a thread-local transformation
// with the SEQ checker costs the same no matter how many threads surround
// it, while checking contextual refinement directly in PS^na grows with
// every added context thread (and requires fixing the context at all).
// This regenerates the shape: SEQ flat, PS^na blowing up in context size.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "psna/Refinement.h"
#include "seq/AdvancedRefinement.h"

#include "BenchSupport.h"

#include <benchmark/benchmark.h>

using namespace pseq;

namespace {

// Example 2.11's SLF-across-release — sound, validated by SEQ once and for
// all, versus PS^na re-checked per context.
const char *SrcText = "na x; atomic y;\n"
                      "thread { x@na := 1; y@rel := 1; b := x@na; "
                      "return b; }";
const char *TgtText = "na x; atomic y;\n"
                      "thread { x@na := 1; y@rel := 1; b := 1; "
                      "return b; }";

/// Appends \p N observer threads to the program.
void addContexts(Program &P, unsigned N) {
  unsigned X = *P.lookupLoc("x");
  unsigned Y = *P.lookupLoc("y");
  for (unsigned I = 0; I != N; ++I) {
    unsigned Tid = P.addThread();
    Program::ThreadCode &T = P.thread(Tid);
    unsigned B = T.Regs.intern("cb");
    unsigned A = T.Regs.intern("ca");
    const Stmt *Then = P.stmtSeq(
        {P.stmtLoad(A, X, ReadMode::NA), P.stmtReturn(P.exprReg(A))});
    P.setThreadBody(
        Tid, P.stmtSeq({P.stmtLoad(B, Y, ReadMode::ACQ),
                        P.stmtIf(P.exprBin(BinOp::Eq, P.exprReg(B),
                                           P.exprConst(1)),
                                 Then, P.stmtReturn(P.exprConst(2)))}));
  }
}

void BM_SeqAdvancedCheck(benchmark::State &State) {
  // The SEQ check is independent of any context (that is the point);
  // range(0) is carried only to align the series in the output table.
  std::unique_ptr<Program> Src = parseOrDie(SrcText);
  std::unique_ptr<Program> Tgt = parseOrDie(TgtText);
  SeqConfig Cfg;
  Cfg.Telem = benchsupport::telemetry();
  Cfg.NumThreads = benchsupport::numThreads();
  Cfg.Guard = benchsupport::resourceGuard();
  bool Holds = false;
  for (auto _ : State) {
    Holds = checkAdvancedRefinement(*Src, *Tgt, Cfg).Holds;
    benchmark::ClobberMemory();
  }
  State.counters["holds"] = Holds;
  State.counters["context_threads"] = static_cast<double>(State.range(0));
}
BENCHMARK(BM_SeqAdvancedCheck)->Arg(0)->Arg(1)->Arg(2);

void BM_PsnaContextualCheck(benchmark::State &State) {
  std::unique_ptr<Program> Src = parseOrDie(SrcText);
  std::unique_ptr<Program> Tgt = parseOrDie(TgtText);
  unsigned N = static_cast<unsigned>(State.range(0));
  addContexts(*Src, N);
  addContexts(*Tgt, N);
  PsConfig Cfg;
  Cfg.Telem = benchsupport::telemetry();
  Cfg.NumThreads = benchsupport::numThreads();
  Cfg.Guard = benchsupport::resourceGuard();
  Cfg.Memo = benchsupport::memoContext();
  unsigned long long States = 0;
  bool Holds = false;
  for (auto _ : State) {
    PsRefinementResult R = checkPsRefinement(*Src, *Tgt, Cfg);
    Holds = R.Holds;
    States = R.SrcStates + R.TgtStates;
    benchmark::ClobberMemory();
  }
  State.counters["holds"] = Holds;
  State.counters["context_threads"] = static_cast<double>(N);
  State.counters["states"] = static_cast<double>(States);
}
BENCHMARK(BM_PsnaContextualCheck)->Arg(0)->Arg(1)->Arg(2);

} // namespace

int main(int argc, char **argv) {
  return benchsupport::benchMain(argc, argv);
}

//===- seq/InitSweep.h - Per-initial-state fan-out --------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal driver shared by the Def 2.4 and Fig. 2 refinement checkers:
/// both quantify over the same initial-state space (P × F × M products) and
/// fold one self-contained record per initial state into a
/// RefinementResult, stopping at the first failing state. The driver fans
/// the per-state checks out across the thread pool; records always fold in
/// index order, so the result (verdict, counterexample, truncation cause,
/// behavior tallies) is identical for every worker count.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_SEQ_INITSWEEP_H
#define PSEQ_SEQ_INITSWEEP_H

#include "exec/ThreadPool.h"
#include "guard/Guard.h"
#include "obs/Telemetry.h"
#include "seq/SimpleRefinement.h"

#include <vector>

namespace pseq::detail {

/// Everything one initial state contributes to a RefinementResult.
struct InitRecord {
  bool Failed = false;
  bool Bounded = false;
  TruncationCause Cause = TruncationCause::None;
  uint64_t SrcBehaviors = 0;
  uint64_t TgtBehaviors = 0;
  std::string Counterexample;
};

/// Folds one initial state's record \p R into \p Result. \returns false
/// when the sweep must stop (first failure).
inline bool foldInitRecord(RefinementResult &Result, InitRecord &R) {
  Result.Bounded |= R.Bounded;
  noteTruncation(Result.Cause, R.Cause);
  Result.SrcBehaviors += R.SrcBehaviors;
  Result.TgtBehaviors += R.TgtBehaviors;
  if (!R.Failed)
    return true;
  Result.Holds = false;
  Result.Counterexample = std::move(R.Counterexample);
  return false;
}

/// Runs CheckInit(SrcM, TgtM, Idx, Record) for initial-state indices
/// 0..NumInits and folds the records in index order, stopping at the first
/// failed index. Indices are claimed dynamically by pool workers (inline
/// at one worker) against per-worker machine copies carrying the workers'
/// telemetry. Every index polls the guard once before its check, and the
/// first-failure bound skips indices past a known failure: the fold never
/// reads past the smallest failed index, and no index at or below it is
/// ever skipped, so the folded prefix — and, at one worker, the poll
/// sequence — matches a plain loop that stops at the first failure.
template <typename CheckFn>
void sweepInits(const SeqMachine &SrcM, const SeqMachine &TgtM,
                size_t NumInits, RefinementResult &Result,
                CheckFn CheckInit) {
  const SeqConfig &Cfg = SrcM.config();
  // A multi-threaded config with a single initial state runs it inline and
  // parallelizes *inside* the per-state check (the enumerators fan out
  // their subtrees).
  unsigned N = exec::fanOutWidth(Cfg.NumThreads, NumInits);
  guard::ResourceGuard *G = Cfg.Guard;
  std::vector<InitRecord> Records(NumInits);

  obs::WorkerTelemetry WTelem(Cfg.Telem, N);
  std::vector<SeqMachine> WSrc, WTgt;
  for (unsigned W = 0; W != N; ++W) {
    SeqConfig WCfg = Cfg;
    WCfg.Telem = WTelem[W];
    WSrc.emplace_back(SrcM.program(), SrcM.tid(), WCfg);
    WTgt.emplace_back(TgtM.program(), TgtM.tid(), WCfg);
  }

  exec::FirstFailure Fail(NumInits);
  exec::parallelFor(N, NumInits, [&](size_t Idx, unsigned W) {
    if (Fail.past(Idx))
      return; // the fold stops before this index no matter what
    InitRecord &R = Records[Idx];
    if (G && G->checkpoint() != TruncationCause::None) {
      // Skipped because the guard tripped: a bounded record naming the
      // trip cause. The sweep over-approximates "unknown" as "bounded",
      // never as "checked and fine"; the fold keeps going through such
      // records — only definite failures stop it.
      R.Bounded = true;
      noteTruncation(R.Cause, G->cause());
      return;
    }
    CheckInit(WSrc[W], WTgt[W], Idx, R);
    if (R.Failed)
      Fail.note(Idx);
  });
  WTelem.merge();

  for (InitRecord &R : Records)
    if (!foldInitRecord(Result, R))
      return;
}

} // namespace pseq::detail

#endif // PSEQ_SEQ_INITSWEEP_H

//===- adequacy/Harness.cpp - Empirical Theorem 6.2 -----------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "adequacy/Harness.h"

#include "exec/ThreadPool.h"
#include "guard/Guard.h"
#include "lang/Parser.h"
#include "obs/Telemetry.h"
#include "seq/SimpleRefinement.h"

#include <chrono>
#include <memory>

using namespace pseq;

namespace {

/// One context's contribution, computed off-thread in the parallel mode.
struct ContextRecord {
  bool Applicable = false;
  ContextVerdict V;
};

/// Clone-build-check for one context; the only work the context loop does
/// besides folding and observing. \p UseCfg carries the (possibly
/// worker-private) telemetry.
ContextRecord checkContext(const ContextSpec &Ctx, const Program &Src,
                           const Program &Tgt, const PsConfig &UseCfg) {
  ContextRecord Rec;
  std::unique_ptr<Program> SrcC = cloneProgram(Src);
  std::unique_ptr<Program> TgtC = cloneProgram(Tgt);
  Ctx.Build(*SrcC);
  Ctx.Build(*TgtC);
  if (SrcC->numThreads() != TgtC->numThreads())
    return Rec; // context not applicable to this layout
  Rec.Applicable = true;
  obs::ScopedSpan Span(UseCfg.Telem ? UseCfg.Telem->Spans : nullptr,
                       "adequacy.context");

  if (guard::ResourceGuard *G = UseCfg.Guard;
      G && G->checkpoint() != TruncationCause::None) {
    // Applicability is just a layout check; the exploration itself is
    // skipped once the guard trips. Unverified, so bounded — never a
    // spurious "holds exhaustively" and never a spurious failure.
    Rec.V.Context = Ctx.Name;
    Rec.V.Bounded = true;
    Rec.V.Cause = G->cause();
    return Rec;
  }

  const auto Start = std::chrono::steady_clock::now();
  PsRefinementResult R = checkPsRefinement(*SrcC, *TgtC, UseCfg);
  Rec.V.Context = Ctx.Name;
  Rec.V.Holds = R.Holds;
  Rec.V.Bounded = R.Bounded;
  Rec.V.Cause = R.Cause;
  Rec.V.Counterexample = R.Counterexample;
  Rec.V.ElapsedMs = obs::msSince(Start);
  return Rec;
}

} // namespace

AdequacyRecord pseq::runAdequacy(const std::string &Name, const Program &Src,
                                 const Program &Tgt, const SeqConfig &SeqCfg,
                                 const PsConfig &PsCfg, bool HasLoops) {
  AdequacyRecord Rec;
  Rec.Name = Name;

  // Either config may carry the telemetry handle; the SEQ checkers and the
  // PS^na explorer each read their own.
  obs::Telemetry *Telem = PsCfg.Telem ? PsCfg.Telem : SeqCfg.Telem;
  obs::SpanRecorder *Spans = Telem ? Telem->Spans : nullptr;
  obs::ScopedSpan PairSpan(Spans, "adequacy.pair");
  const auto Start = std::chrono::steady_clock::now();

  RefinementResult Simple, Advanced;
  {
    obs::ScopedSpan SeqSpan(Spans, "adequacy.seq");
    Simple = checkSimpleRefinement(Src, Tgt, SeqCfg);
    Advanced = checkAdvancedRefinement(Src, Tgt, SeqCfg);
  }
  Rec.SeqSimple = Simple.Holds;
  Rec.SeqAdvanced = Advanced.Holds;
  Rec.SeqBounded = Simple.Bounded || Advanced.Bounded || HasLoops;
  Rec.AnyBounded = Rec.SeqBounded;
  noteTruncation(Rec.FirstCause, Simple.Cause);
  noteTruncation(Rec.FirstCause, Advanced.Cause);

  // Contexts are independent, so they fan out across the pool; verdicts,
  // tallies, and instant events fold in library order afterwards, making the
  // record identical (modulo ElapsedMs) for every worker count. No context
  // is drained on a guard trip: each polls the guard itself and records a
  // bounded verdict, as a one-worker run does.
  const std::vector<ContextSpec> &Lib = contextLibrary();
  std::vector<ContextRecord> CtxRecords(Lib.size());
  unsigned N = exec::fanOutWidth(PsCfg.NumThreads, Lib.size());
  obs::WorkerTelemetry WTelem(PsCfg.Telem, N);
  std::vector<PsConfig> WCfgs(N, PsCfg);
  for (unsigned W = 0; W != N; ++W)
    WCfgs[W].Telem = WTelem[W];
  exec::parallelFor(N, Lib.size(), [&](size_t I, unsigned W) {
    CtxRecords[I] = checkContext(Lib[I], Src, Tgt, WCfgs[W]);
  });
  WTelem.merge();

  for (ContextRecord &CR : CtxRecords) {
    if (!CR.Applicable)
      continue;
    ContextVerdict &V = CR.V;
    Rec.PsnaAllContexts &= V.Holds;
    Rec.AnyBounded |= V.Bounded;
    noteTruncation(Rec.FirstCause, V.Cause);
    if (Telem) {
      obs::ScopedTally Tally(&Telem->Counters);
      ++Tally.slot("adequacy.ctx_checks");
      if (V.Holds)
        ++Tally.slot("adequacy.ctx_holds");
      if (V.Bounded)
        ++Tally.slot("adequacy.ctx_bounded");
      if (Telem->Spans)
        Telem->Spans->instant("adequacy.context",
                              {{"pair", Name},
                               {"context", V.Context},
                               {"holds", V.Holds},
                               {"bounded", V.Bounded},
                               {"cause", truncationCauseName(V.Cause)},
                               {"ms", V.ElapsedMs}});
    }
    Rec.Contexts.push_back(std::move(V));
  }

  // A trip after the last context's poll still makes the pair bounded.
  if (guard::ResourceGuard *G = PsCfg.Guard; G && G->stopped()) {
    Rec.AnyBounded = true;
    noteTruncation(Rec.FirstCause, G->cause());
  }

  if (Telem) {
    obs::ScopedTally Tally(&Telem->Counters);
    ++Tally.slot("adequacy.pairs");
    if (Rec.adequacyHolds())
      ++Tally.slot("adequacy.agree");
    else
      ++Tally.slot("adequacy.disagree");
    if (Rec.witnessFound())
      ++Tally.slot("adequacy.witnesses");
    if (Telem->Spans)
      Telem->Spans->instant("adequacy.pair",
                            {{"pair", Name},
                             {"seq_simple", Rec.SeqSimple},
                             {"seq_advanced", Rec.SeqAdvanced},
                             {"psna_all", Rec.PsnaAllContexts},
                             {"bounded", Rec.AnyBounded},
                             {"cause", truncationCauseName(Rec.FirstCause)},
                             {"ms", obs::msSince(Start)}});
  }
  return Rec;
}

AdequacyRecord pseq::runAdequacy(const RefinementCase &RC,
                                 const PsConfig &PsCfg) {
  std::unique_ptr<Program> Src = parseOrDie(RC.Src);
  std::unique_ptr<Program> Tgt = parseOrDie(RC.Tgt);
  SeqConfig SeqCfg;
  SeqCfg.Domain = RC.Domain;
  SeqCfg.StepBudget = RC.StepBudget;
  SeqCfg.Guard = PsCfg.Guard; // one guard governs both sides of the pair
  return runAdequacy(RC.Name, *Src, *Tgt, SeqCfg, PsCfg, RC.HasLoops);
}

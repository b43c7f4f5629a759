//===- opt/Validator.cpp - Translation validation -------------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "opt/Validator.h"

#include "exec/ThreadPool.h"
#include "guard/Guard.h"
#include "obs/Telemetry.h"
#include "psna/Refinement.h"
#include "seq/SimpleRefinement.h"

#include <cassert>
#include <chrono>
#include <string>

using namespace pseq;

namespace {

/// What validating one program thread contributes to the verdict.
struct ThreadRecord {
  bool Ran = false; ///< false = skipped (guard tripped before this thread)
  bool Holds = false;
  bool Bounded = false;
  TruncationCause Cause = TruncationCause::None;
  std::string Cex;
  unsigned long long States = 0;
};

} // namespace

ValidationResult pseq::validateTransform(const Program &Src,
                                         const Program &Tgt, SeqConfig Cfg,
                                         ValidationMethod Method) {
  assert(sameLayout(Src, Tgt) && "passes must preserve the memory layout");
  assert(Src.numThreads() == Tgt.numThreads() &&
         "passes must preserve the thread structure");
  assert(Method != ValidationMethod::Psna &&
         "whole-program method: use validatePsTransform");

  obs::Telemetry *Telem = Cfg.Telem;
  obs::ScopedSpan Span(Telem ? Telem->Spans : nullptr, "opt.validate");
  // ElapsedMs is part of the result (not just telemetry), so it is
  // measured unconditionally.
  const auto Start = std::chrono::steady_clock::now();

  ValidationResult Out;
  Out.MethodUsed = Method;

  // Static race verdict for the source. A RaceFree verdict is the DRF-style
  // justification for the per-thread sequential fast path below: when no
  // na-race can fire, §6's adequacy needs only the SEQ refinements checked
  // here. The verdict never changes the Ok/Bounded outcome — it is recorded
  // evidence, cross-validated dynamically by the adequacy harness.
  if (Cfg.Lint)
    Out.Lint = analysis::analyzeRaces(Src, Telem).Verdict;

  const unsigned NumT = Src.numThreads();
  guard::ResourceGuard *Guard = Cfg.Guard;
  auto checkThread = [&](unsigned T, const SeqConfig &UseCfg,
                         ThreadRecord &Rec) {
    Rec.Ran = true;
    switch (Method) {
    case ValidationMethod::Simple: {
      RefinementResult R = checkSimpleRefinement(Src, T, Tgt, T, UseCfg);
      Rec.Holds = R.Holds;
      Rec.Bounded = R.Bounded;
      Rec.Cause = R.Cause;
      Rec.Cex = R.Counterexample;
      Rec.States = R.InitialStates + R.SrcBehaviors + R.TgtBehaviors;
      break;
    }
    case ValidationMethod::Advanced: {
      RefinementResult R = checkAdvancedRefinement(Src, T, Tgt, T, UseCfg);
      Rec.Holds = R.Holds;
      Rec.Bounded = R.Bounded;
      Rec.Cause = R.Cause;
      Rec.Cex = R.Counterexample;
      Rec.States = R.InitialStates + R.TgtBehaviors;
      break;
    }
    case ValidationMethod::Simulation: {
      SimulationResult R = checkSimulation(Src, T, Tgt, T, UseCfg);
      Rec.Holds = R.Holds;
      Rec.Bounded = !R.Complete;
      if (Rec.Bounded)
        Rec.Cause = R.Cause != TruncationCause::None
                        ? R.Cause
                        : TruncationCause::StateBudget;
      Rec.Cex = R.Counterexample;
      Rec.States = R.ProductNodes;
      break;
    }
    case ValidationMethod::Psna:
      break; // asserted away above; unreachable
    }
  };

  // (pass, thread) checks are independent; with several program threads and
  // a multi-threaded config they fan out across the pool against per-worker
  // configs. Records fold in thread order through the first failure, and
  // the first-failure bound skips exactly the threads a one-worker run
  // never reaches, so the verdict and counterexample are the same for every
  // worker count.
  std::vector<ThreadRecord> Records(NumT);
  unsigned N = exec::fanOutWidth(Cfg.NumThreads, NumT);
  obs::WorkerTelemetry WTelem(Telem, N);
  std::vector<SeqConfig> WCfgs(N, Cfg);
  for (unsigned W = 0; W != N; ++W)
    WCfgs[W].Telem = WTelem[W];
  exec::FirstFailure Fail(NumT);
  exec::parallelFor(
      N, NumT,
      [&](size_t T, unsigned W) {
        if (Fail.past(T))
          return;
        if (Guard && Guard->checkpoint() != TruncationCause::None)
          return; // remaining threads fold as bounded-skipped below
        checkThread(static_cast<unsigned>(T), WCfgs[W], Records[T]);
        if (!Records[T].Holds)
          Fail.note(T);
      },
      Guard ? &Guard->stopFlag() : nullptr);
  WTelem.merge();

  for (unsigned T = 0; T != NumT; ++T) {
    ThreadRecord &Rec = Records[T];
    if (!Rec.Ran) {
      // Skipped by a guard trip (or sequenced after a failure): the check
      // ran out of resources before reaching this thread, so the verdict
      // is bounded — never "checked and fine", never a spurious failure.
      if (Guard && Guard->stopped()) {
        Out.Bounded = true;
        noteTruncation(Out.Cause, Guard->cause());
      }
      continue;
    }
    Out.StatesExplored += Rec.States;
    Out.Bounded |= Rec.Bounded;
    noteTruncation(Out.Cause, Rec.Cause);
    if (Rec.Holds)
      continue;
    Out.Ok = false;
    Out.Counterexample = "thread " + std::to_string(T) + ": " + Rec.Cex;
    break;
  }
  if (Guard && Guard->stopped()) {
    Out.Bounded = true;
    noteTruncation(Out.Cause, Guard->cause());
  }
  if (Out.Bounded) {
    if (!Out.Counterexample.empty())
      Out.Counterexample += " ";
    Out.Counterexample += std::string("[bounded: ") +
                          truncationCauseName(Out.Cause) + " truncation]";
  }
  Out.ElapsedMs = obs::msSince(Start);

  if (Telem) {
    obs::ScopedTally Tally(&Telem->Counters);
    ++Tally.slot("opt.validate.calls");
    if (!Out.Ok)
      ++Tally.slot("opt.validate.rejects");
    if (Out.Bounded)
      ++Tally.slot("opt.validate.bounded");
    Telem->Counters.add(std::string("opt.validate.method.") +
                        validationMethodName(Method));
    if (Telem->Spans)
      Telem->Spans->instant(
          "opt.validate",
          {{"ok", Out.Ok},
           {"bounded", Out.Bounded},
           {"method", validationMethodName(Method)},
           {"cause", truncationCauseName(Out.Cause)},
           {"lint", Out.Lint ? analysis::raceVerdictName(*Out.Lint) : "off"},
           {"states", Out.StatesExplored},
           {"ms", Out.ElapsedMs}});
  }
  return Out;
}

ValidationResult pseq::validatePsTransform(const Program &Src,
                                           const Program &Tgt, PsConfig Cfg) {
  assert(sameLayout(Src, Tgt) && "passes must preserve the memory layout");
  assert(Src.numThreads() == Tgt.numThreads() &&
         "passes must preserve the thread structure");

  obs::Telemetry *Telem = Cfg.Telem;
  obs::ScopedSpan Span(Telem ? Telem->Spans : nullptr, "opt.validate");
  const auto Start = std::chrono::steady_clock::now();

  ValidationResult Out;
  Out.MethodUsed = ValidationMethod::Psna;
  // The source verdict is recorded for the same reason as in the SEQ path:
  // the promotion/weakening passes justify their rewrites from it, so the
  // report should show the evidence they acted on.
  if (Cfg.Lint)
    Out.Lint = analysis::analyzeRaces(Src, Telem).Verdict;

  PsRefinementResult R = checkPsRefinement(Src, Tgt, Cfg);
  Out.Ok = R.Holds;
  Out.Bounded = R.Bounded;
  Out.Cause = R.Cause;
  Out.Counterexample = R.Counterexample;
  Out.StatesExplored =
      static_cast<unsigned long long>(R.SrcStates) + R.TgtStates;
  if (Out.Bounded) {
    if (!Out.Counterexample.empty())
      Out.Counterexample += " ";
    Out.Counterexample += std::string("[bounded: ") +
                          truncationCauseName(Out.Cause) + " truncation]";
  }
  Out.ElapsedMs = obs::msSince(Start);

  if (Telem) {
    obs::ScopedTally Tally(&Telem->Counters);
    ++Tally.slot("opt.validate.calls");
    if (!Out.Ok)
      ++Tally.slot("opt.validate.rejects");
    if (Out.Bounded)
      ++Tally.slot("opt.validate.bounded");
    Telem->Counters.add(std::string("opt.validate.method.") +
                        validationMethodName(ValidationMethod::Psna));
    if (Telem->Spans)
      Telem->Spans->instant(
          "opt.validate",
          {{"ok", Out.Ok},
           {"bounded", Out.Bounded},
           {"method", validationMethodName(ValidationMethod::Psna)},
           {"cause", truncationCauseName(Out.Cause)},
           {"lint", Out.Lint ? analysis::raceVerdictName(*Out.Lint) : "off"},
           {"states", Out.StatesExplored},
           {"ms", Out.ElapsedMs}});
  }
  return Out;
}

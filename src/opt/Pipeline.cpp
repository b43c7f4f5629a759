//===- opt/Pipeline.cpp - The four-pass optimizer -------------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "opt/Pipeline.h"

#include "guard/Guard.h"
#include "guard/Shrink.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "memo/Fingerprint.h"
#include "obs/Telemetry.h"
#include "opt/PromotePass.h"
#include "opt/WeakenPass.h"

#include <chrono>
#include <functional>

using namespace pseq;

namespace {

using PassFn = PassResult (*)(const Program &);

/// One pipeline stage. WholeProgram selects the PS^na outcome-inclusion
/// validator (promotion and weakening change per-thread label traces, so
/// the SEQ procedures reject them by construction).
struct PassDesc {
  const char *Name;
  PassFn Fn;
  bool WholeProgram;
};

/// Still-rejected predicate over printed program pairs.
using RevalidateFn =
    std::function<bool(const Program &, const Program &)>;

/// Delta-debugs a rejected (input, output) pair down to a minimal pair the
/// validator still rejects. Candidates that fail to parse, change the
/// memory layout, or change the thread structure are rejected by the
/// predicate, so the shrinker never feeds the validator an ill-formed pair.
void shrinkRejectedPair(const Program &Src, const Program &Tgt,
                        const RevalidateFn &StillRejects,
                        guard::ResourceGuard *Guard, PassReport &Report) {
  guard::ShrinkPredicate StillFails = [&](const std::string &S,
                                          const std::string &T) {
    ParseResult PS = parseProgram(S);
    ParseResult PT = parseProgram(T);
    if (!PS.ok() || !PT.ok())
      return false;
    if (!sameLayout(*PS.Prog, *PT.Prog) ||
        PS.Prog->numThreads() != PT.Prog->numThreads())
      return false;
    return StillRejects(*PS.Prog, *PT.Prog);
  };
  guard::ShrinkOptions SOpts;
  SOpts.Guard = Guard;
  guard::ShrinkResult SR =
      guard::shrinkPair(printProgram(Src), printProgram(Tgt), StillFails,
                        SOpts);
  Report.ShrunkSrc = std::move(SR.Src);
  Report.ShrunkTgt = std::move(SR.Tgt);
}

} // namespace

// Mixed into the PS^na validation config's ConfigSalt by runPipeline: a
// MemoContext shared across pipeline setups (or with direct checker runs)
// then partitions its caches per setup, so a sweep that turns a pass on
// can never be answered from entries recorded with it off.
uint64_t pseq::pipelineConfigSalt(const PipelineOptions &Opts) {
  memo::Fp128 F = memo::fpSeed(0x70736571'70697065ULL); // "pseq pipe"
  memo::fpMix(F, Opts.PsCfg.ConfigSalt);
  uint64_t Flags = (Opts.Validate ? 1u : 0u) |
                   (Opts.EnableConstProp ? 2u : 0u) |
                   (Opts.EnablePromote ? 4u : 0u) |
                   (Opts.EnableWeaken ? 8u : 0u);
  memo::fpMix(F, Flags);
  memo::fpMix(F, static_cast<uint64_t>(Opts.Method));
  return F.Lo;
}

PipelineResult pseq::runPipeline(const Program &P,
                                 const PipelineOptions &Opts) {
  PipelineResult Out;
  Out.Prog = cloneProgram(P);

  obs::Telemetry *Telem = Opts.Telem ? Opts.Telem : Opts.Cfg.Telem;
  guard::ResourceGuard *Guard = Opts.Guard ? Opts.Guard : Opts.Cfg.Guard;
  SeqConfig ValidateCfg = Opts.Cfg;
  ValidateCfg.Telem = Telem;
  ValidateCfg.NumThreads = Opts.NumThreads;
  ValidateCfg.Guard = Guard;
  PsConfig PsValidateCfg = Opts.PsCfg;
  PsValidateCfg.Telem = Telem;
  PsValidateCfg.NumThreads = Opts.NumThreads;
  PsValidateCfg.Guard = Guard;
  PsValidateCfg.Memo = Opts.Memo;
  PsValidateCfg.ConfigSalt = pipelineConfigSalt(Opts);
  const auto PipeStart = std::chrono::steady_clock::now();
  obs::SpanRecorder *Spans = Telem ? Telem->Spans : nullptr;
  obs::ScopedSpan PipeSpan(Spans, "opt.pipeline");

  std::vector<PassDesc> Passes;
  if (Opts.EnableConstProp)
    Passes.push_back({"constprop", runConstPropPass, false});
  Passes.insert(Passes.end(), {{"slf", runSlfPass, false},
                               {"llf", runLlfPass, false},
                               {"dse", runDsePass, false},
                               {"licm", runLicmPass, false}});
  if (Opts.EnablePromote)
    Passes.push_back({"promote", runPromotePass, true});
  if (Opts.EnableWeaken)
    Passes.push_back({"weaken", runWeakenPass, true});

  for (const PassDesc &Desc : Passes) {
    const char *Name = Desc.Name;
    PassReport Report;
    Report.Name = Name;
    Report.Method =
        Desc.WholeProgram ? ValidationMethod::Psna : Opts.Method;
    // Span nesting: opt.pipeline / <pass> / {opt.rewrite, opt.validate}.
    obs::ScopedSpan PassSpan(Spans, Name);
    PassResult PR = [&] {
      obs::ScopedSpan OptSpan(Spans, "opt.rewrite");
      const auto Start = std::chrono::steady_clock::now();
      PassResult R = Desc.Fn(*Out.Prog);
      Report.OptMs = obs::msSince(Start);
      return R;
    }();
    Report.Rewrites = PR.Rewrites;
    Report.Stats = PR.Stats;
    if (Telem) {
      Telem->Counters.recordHist("opt.pass.rewrites", PR.Rewrites);
      if (PR.Rewrites)
        Telem->Counters.add(std::string("opt.pass.") + Name + ".rewrites",
                            PR.Rewrites);
      // Pass-specific tallies fire even on zero-rewrite runs (a promotion
      // pass that rejected every candidate still explains itself).
      for (const auto &[Key, V] : PR.Stats)
        if (V)
          Telem->Counters.add(std::string("opt.") + Name + "." + Key, V);
    }

    if (PR.Rewrites == 0) {
      // Nothing changed: skip validation, keep the (equivalent) output.
      Out.Prog = std::move(PR.Prog);
      Out.Reports.push_back(std::move(Report));
      continue;
    }

    if (Opts.Validate) {
      ValidationResult V =
          Desc.WholeProgram
              ? validatePsTransform(*Out.Prog, *PR.Prog, PsValidateCfg)
              : validateTransform(*Out.Prog, *PR.Prog, ValidateCfg,
                                  Opts.Method);
      Report.Validated = V.Ok;
      Report.ValidationBounded = V.Bounded;
      Report.ValidationCause = V.Cause;
      Report.ValidateMs = V.ElapsedMs;
      Report.ValidationStates = V.StatesExplored;
      Report.Lint = V.Lint;
      if (Spans)
        Spans->instant("opt.pass", {{"pass", Name},
                                    {"rewrites", uint64_t(PR.Rewrites)},
                                    {"validated", V.Ok},
                                    {"bounded", V.Bounded},
                                    {"opt_ms", Report.OptMs},
                                    {"validate_ms", V.ElapsedMs}});
      if (!V.Ok) {
        Report.Error = V.Counterexample;
        Out.AllValidated = false;
        if (Opts.ShrinkFailures) {
          obs::ScopedSpan ShrinkSpan(Spans, "opt.shrink");
          RevalidateFn StillRejects = [&](const Program &S,
                                          const Program &T) {
            return Desc.WholeProgram
                       ? !validatePsTransform(S, T, PsValidateCfg).Ok
                       : !validateTransform(S, T, ValidateCfg, Opts.Method)
                              .Ok;
          };
          shrinkRejectedPair(*Out.Prog, *PR.Prog, StillRejects, Guard,
                             Report);
        }
        Out.Reports.push_back(std::move(Report));
        continue; // discard this pass's output
      }
    }

    Out.TotalRewrites += PR.Rewrites;
    Out.Prog = std::move(PR.Prog);
    Out.Reports.push_back(std::move(Report));
  }
  Out.TotalMs = obs::msSince(PipeStart);
  return Out;
}

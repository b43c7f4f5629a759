//===- opt/Pipeline.h - The four-pass optimizer -----------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The §4 optimizer: SLF → LLF → DSE → LICM, each pass optionally
/// validated against the SEQ refinement checker (translation validation in
/// place of the paper's Coq certificate), optionally followed by the two
/// extension passes — register promotion and fence/mode weakening — whose
/// rewrites are invisible to closed-program outcomes but not to per-thread
/// SEQ traces, and which are therefore validated with the whole-program
/// PS^na check (validatePsTransform). The pipeline is the library's
/// top-level entry point for consumers.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_OPT_PIPELINE_H
#define PSEQ_OPT_PIPELINE_H

#include "opt/ConstPropPass.h"
#include "opt/LicmPass.h"
#include "opt/Validator.h"

#include <vector>

namespace pseq {

namespace guard {
class ResourceGuard;
}

namespace memo {
class MemoContext;
}

/// Pipeline configuration.
struct PipelineOptions {
  bool Validate = true; ///< run the SEQ checker after every pass
  /// The Fig. 6 simulation, the device the paper's optimizer certifies its
  /// passes with: it entails ⊑w (so DSE across release writes validates)
  /// and closes loops exactly. Other values are experiment overrides; the
  /// trace checkers ⊑ and ⊑w stay as the paper's definitions and as test
  /// oracles.
  ValidationMethod Method = ValidationMethod::Simulation;
  SeqConfig Cfg; ///< checker bounds (universe auto-resolved)
  /// Run the extension constant-propagation pass before the paper's four
  /// (it feeds SLF constant stores and folds decided branches).
  bool EnableConstProp = false;
  /// Run the register-promotion pass (opt/PromotePass.h) after the
  /// paper's four. Validated whole-program in PS^na via PsCfg.
  bool EnablePromote = false;
  /// Run the fence/mode-weakening pass (opt/WeakenPass.h) last. Validated
  /// whole-program in PS^na via PsCfg.
  bool EnableWeaken = false;
  /// PS^na explorer bounds for the whole-program validation of the two
  /// extension passes. NumThreads/Telem/Guard below are forwarded into it
  /// the same way they are forwarded into Cfg, Memo only into it, and its
  /// ConfigSalt is re-derived from the active pass configuration (see
  /// runPipeline), so a shared MemoContext never replays a verdict
  /// recorded under a different pipeline setup.
  PsConfig PsCfg;
  /// Worker count forwarded to the validator through Cfg (overriding
  /// Cfg.NumThreads, like Telem below): 1 validates on the calling thread,
  /// 0 uses all hardware threads. Verdicts are identical either way.
  /// Defaults to the PSEQ_THREADS environment variable (unset = 1).
  unsigned NumThreads = exec::defaultNumThreads();
  /// Optional telemetry (borrowed; see obs/Telemetry.h). Also forwarded to
  /// the validator through Cfg, overriding Cfg.Telem when set.
  obs::Telemetry *Telem = nullptr;
  /// Optional resource guard (borrowed; see guard/Guard.h). Forwarded to
  /// the validator through Cfg, overriding Cfg.Guard when set: governed
  /// pipelines report bounded validation verdicts instead of running past
  /// their deadline / memory budget.
  guard::ResourceGuard *Guard = nullptr;
  /// Optional memoization context (borrowed; see memo/MemoContext.h).
  /// Forwarded through PsCfg to the whole-program PS^na validation of the
  /// promote and weaken passes, whose repeated explorations then answer
  /// from its behavior-set cache. The SEQ-side checks cache nothing.
  memo::MemoContext *Memo = nullptr;
  /// On a validation rejection, delta-debug the failing (input, output)
  /// pair down to a minimal still-rejected pair (PassReport::ShrunkSrc /
  /// ShrunkTgt). Rejections signal library bugs, so the cost only ever
  /// shows up when something is already wrong.
  bool ShrinkFailures = true;
};

/// One line of the pipeline report.
struct PassReport {
  std::string Name;
  unsigned Rewrites = 0;
  /// Pass-specific tallies (PassResult::Stats), also published as
  /// `opt.<pass>.<key>` counters when telemetry is attached.
  std::vector<std::pair<std::string, uint64_t>> Stats;
  /// Which decision procedure validated this pass (meaningful when
  /// Validated or Error is set): the SEQ method from
  /// PipelineOptions::Method for the thread-local passes, Psna for the
  /// whole-program extension passes.
  ValidationMethod Method = ValidationMethod::Advanced;
  bool Validated = false;       ///< checker ran and accepted
  bool ValidationBounded = false;
  TruncationCause ValidationCause = TruncationCause::None;
  std::string Error;            ///< non-empty iff validation rejected
  /// Minimal still-rejected pair from the shrinker (empty when validation
  /// accepted, shrinking is disabled, or nothing could be removed).
  std::string ShrunkSrc;
  std::string ShrunkTgt;
  double OptMs = 0.0;           ///< wall time of the pass itself
  double ValidateMs = 0.0;      ///< wall time of its validation (0 if skipped)
  unsigned long long ValidationStates = 0; ///< checker states examined
  /// Static race verdict of the pass's input program, recorded by the
  /// validator (ValidationResult::Lint). Unset when validation was skipped
  /// or linting is disabled.
  std::optional<analysis::RaceVerdict> Lint;
};

/// Pipeline output: the final program plus per-pass reports.
struct PipelineResult {
  std::unique_ptr<Program> Prog;
  std::vector<PassReport> Reports;
  bool AllValidated = true;
  unsigned TotalRewrites = 0;
  double TotalMs = 0.0; ///< wall time of the whole pipeline
};

/// Runs the full pipeline on \p P. When validation rejects a pass (which
/// indicates a bug in this library, never expected in production), the
/// pass's output is discarded and the pipeline continues from its input.
PipelineResult runPipeline(const Program &P,
                           const PipelineOptions &Opts = PipelineOptions());

/// Hash of the active pass configuration — the salt runPipeline sets as the
/// PS^na validation config's ConfigSalt so a shared MemoContext partitions
/// its caches per pipeline setup. Exposed so external caches keyed on
/// pipeline outcomes (the validation server's verdict cache) can partition
/// by exactly the same notion of "same configuration" the memo layer uses.
uint64_t pipelineConfigSalt(const PipelineOptions &Opts);

} // namespace pseq

#endif // PSEQ_OPT_PIPELINE_H

//===- opt/Validator.h - Translation validation -----------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The C++ stand-in for the paper's Coq certificate: every optimizer run
/// is checked against the SEQ refinement decision procedures — per thread,
/// since the passes are thread-local. By Thm 6.2 a validated run is a
/// contextual refinement in PS^na. (The paper proves each pass correct
/// once and for all; we verify each run, Alive2-style — the substitution
/// DESIGN.md documents for the missing proof assistant.)
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_OPT_VALIDATOR_H
#define PSEQ_OPT_VALIDATOR_H

#include "analysis/RaceLint.h"
#include "psna/Machine.h"
#include "seq/AdvancedRefinement.h"
#include "seq/Simulation.h"

#include <optional>

namespace pseq {

/// Which decision procedure certifies a pass.
enum class ValidationMethod {
  Simple,   ///< trace-based ⊑ (Def 2.4)
  Advanced, ///< trace-based ⊑w (Def 3.3) — validateTransform's default
  /// Fig. 6 coinductive simulation — exact on loops; the pipeline's
  /// default (PipelineOptions::Method)
  Simulation,
  /// Whole-program Def 5.3 outcome inclusion in PS^na, for the passes the
  /// per-thread SEQ procedures cannot certify: register promotion changes
  /// the silent/observable split of a thread (stores vanish from memory)
  /// and fence weakening changes the label sequence, so ⊑/⊑w reject them
  /// by construction even when every closed-program outcome is preserved.
  /// Only validatePsTransform uses this method; validateTransform asserts
  /// it away.
  Psna,
};

/// Lower-case label for reports and instant events.
constexpr const char *validationMethodName(ValidationMethod M) {
  switch (M) {
  case ValidationMethod::Simple:
    return "simple";
  case ValidationMethod::Advanced:
    return "advanced";
  case ValidationMethod::Simulation:
    return "simulation";
  case ValidationMethod::Psna:
    return "psna";
  }
  return "unknown";
}

/// The methods a CLI `--method` flag may request, for usage messages.
/// Psna is pipeline-internal (validatePsTransform picks it by pass kind),
/// so it is deliberately absent.
constexpr const char *validationMethodList() {
  return "simple, advanced, simulation";
}

/// Parses a CLI `--method` value: the validationMethodName tokens.
/// Returns std::nullopt on anything else — including "psna" — so
/// callers can print a usage line listing validationMethodList() and
/// exit nonzero instead of silently defaulting or aborting. Shared by the
/// example and bench binaries and the serve protocol's job decoder, so a
/// typo gets the same non-fatal diagnosis everywhere.
inline std::optional<ValidationMethod>
parseValidationMethodMaybe(const std::string &Name) {
  if (Name == "simple")
    return ValidationMethod::Simple;
  if (Name == "advanced")
    return ValidationMethod::Advanced;
  if (Name == "simulation")
    return ValidationMethod::Simulation;
  return std::nullopt;
}

/// Outcome of validating one transformation.
struct ValidationResult {
  bool Ok = true;
  bool Bounded = false;
  /// The budget responsible for Bounded (None when exhaustive); also
  /// appended to Counterexample for bounded verdicts.
  TruncationCause Cause = TruncationCause::None;
  ValidationMethod MethodUsed = ValidationMethod::Advanced;
  std::string Counterexample; ///< includes the offending thread index
  /// States/behaviors the underlying decision procedure examined, summed
  /// over threads (initial states + behaviors for the trace checkers,
  /// product nodes for the simulation).
  unsigned long long StatesExplored = 0;
  double ElapsedMs = 0.0; ///< wall time of the whole validation
  /// Static race verdict for the source program (analysis/RaceLint.h).
  /// RaceFree records that the program is provably race-free, which is
  /// the DRF-style justification for validating per thread with the SEQ
  /// procedures alone: §6's sequential-reasoning soundness needs no
  /// stronger hypothesis when no na-race can fire. Unset when linting is
  /// disabled via SeqConfig::Lint.
  std::optional<analysis::RaceVerdict> Lint;
};

/// Checks σ_tgt ⊑w σ_src (or the notion \p Method names) for every thread
/// of the transformed program \p Tgt against \p Src. \p Method must be
/// one of the per-thread SEQ procedures (Simple/Advanced/Simulation).
ValidationResult
validateTransform(const Program &Src, const Program &Tgt,
                  SeqConfig Cfg = SeqConfig(),
                  ValidationMethod Method = ValidationMethod::Advanced);

/// Whole-program translation validation in PS^na (Def 5.3 outcome
/// inclusion): used for register promotion and fence weakening, whose
/// rewrites are invisible to closed-program outcomes but not to the
/// per-thread SEQ label traces. Not contextual — a promoted location could
/// be re-shared by a context — so the verdict certifies exactly the closed
/// program passed in, which is what the pipeline transforms. Programs must
/// share layouts and thread counts.
ValidationResult validatePsTransform(const Program &Src, const Program &Tgt,
                                     PsConfig Cfg = PsConfig());

} // namespace pseq

#endif // PSEQ_OPT_VALIDATOR_H

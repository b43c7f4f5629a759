//===- support/Truncation.h - Why an exploration stopped --------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every bounded-exhaustive engine in this repo (the SEQ behavior
/// enumerator, the PS^na explorer, the refinement matchers) can stop early
/// when one of its budgets runs out. Verdicts derived from a truncated set
/// are "bounded" rather than exhaustive; this enum records *which* budget
/// was responsible, so diagnostics can say more than a bare flag.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_SUPPORT_TRUNCATION_H
#define PSEQ_SUPPORT_TRUNCATION_H

#include <cstdint>

namespace pseq {

/// The budget that cut an exploration short (None = exhaustive).
enum class TruncationCause : uint8_t {
  None,        ///< exploration ran to completion
  StepBudget,  ///< SeqConfig::StepBudget hit mid-run
  BehaviorCap, ///< SeqConfig::MaxBehaviors safety valve hit
  StateBudget, ///< a state/node cap hit (PsConfig::MaxStates, match budgets)
  CertBudget,  ///< PsConfig::CertNodeBudget hit during certification
  Deadline,    ///< guard::ResourceGuard soft wall-clock deadline expired
  MemBudget,   ///< guard::ResourceGuard approximate memory budget exceeded
  Cancelled,   ///< guard::CancellationToken tripped
};

/// Stable lowercase token for reports and traces.
constexpr const char *truncationCauseName(TruncationCause C) {
  switch (C) {
  case TruncationCause::None:
    return "none";
  case TruncationCause::StepBudget:
    return "step-budget";
  case TruncationCause::BehaviorCap:
    return "behavior-cap";
  case TruncationCause::StateBudget:
    return "state-budget";
  case TruncationCause::CertBudget:
    return "cert-budget";
  case TruncationCause::Deadline:
    return "deadline";
  case TruncationCause::MemBudget:
    return "mem-budget";
  case TruncationCause::Cancelled:
    return "cancelled";
  }
  return "none";
}

/// True for the guard-driven causes (deadline, memory, cancellation).
/// Unlike the work-item budgets, these cut an exploration at an arbitrary
/// point mid-run, so a set truncated by them is an arbitrary prefix:
/// verdicts that quantify over the *absence* of an element (an unmatched
/// behavior) must degrade to bounded instead of failing.
constexpr bool isGuardCause(TruncationCause C) {
  return C == TruncationCause::Deadline || C == TruncationCause::MemBudget ||
         C == TruncationCause::Cancelled;
}

/// Keeps the first recorded cause: the budget that fired first explains the
/// truncation; later ones are downstream noise. The one exception is a
/// guard cause, which displaces a work-item budget: the guard cut the run
/// at an arbitrary point, which consumers must see (isGuardCause) to
/// degrade to bounded instead of trusting the prefix, and it is the limit
/// the caller has to raise.
inline void noteTruncation(TruncationCause &Slot, TruncationCause C) {
  if (Slot == TruncationCause::None ||
      (isGuardCause(C) && !isGuardCause(Slot)))
    Slot = C;
}

} // namespace pseq

#endif // PSEQ_SUPPORT_TRUNCATION_H

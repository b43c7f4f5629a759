//===- seq/SimpleRefinement.h - Def 2.4 decision procedure ------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simple behavioral refinement of §2 (Def 2.4): σ_tgt ⊑ σ_src iff for
/// every initial ⟨P, F, M⟩, every behavior of ⟨σ_tgt, P, F, M⟩ is matched
/// (⊑, Def 2.3) by some behavior of ⟨σ_src, P, F, M⟩. Decided by exhaustive
/// bounded enumeration over the footprint universe.
///
/// This notion suffices for "the vast majority of optimizations (including
/// all those involving solely non-atomics)"; transformations combining a
/// non-atomic write with a release/relaxed atomic need the advanced notion
/// (seq/AdvancedRefinement.h).
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_SEQ_SIMPLEREFINEMENT_H
#define PSEQ_SEQ_SIMPLEREFINEMENT_H

#include "seq/BehaviorEnum.h"

#include <string>

namespace pseq {

/// Outcome of a refinement check.
struct RefinementResult {
  bool Holds = true;
  /// True when some enumeration was truncated by a budget: a positive
  /// verdict is then "bounded-verified" rather than exhaustive. Negative
  /// verdicts (counterexamples) are always definite.
  bool Bounded = false;
  /// The first budget responsible for Bounded (None when exhaustive).
  /// Matcher/game node budgets report as StateBudget.
  TruncationCause Cause = TruncationCause::None;
  std::string Counterexample; ///< initial state + unmatched target behavior

  // Statistics for the bench harness.
  unsigned InitialStates = 0;
  unsigned long long SrcBehaviors = 0;
  unsigned long long TgtBehaviors = 0;
};

/// Fills Cfg.Universe (if empty) with the union of the two threads'
/// non-atomic footprints.
SeqConfig resolveUniverse(SeqConfig Cfg, const Program &SrcP, unsigned SrcTid,
                          const Program &TgtP, unsigned TgtTid);

/// Telemetry epilogue shared by the refinement checkers: bumps
/// `<Kind>.{calls,fails,bounded}` and records one instant event named
/// \p Kind (a string literal) per call. No-op when \p Telem is null.
void observeRefinementCheck(obs::Telemetry *Telem, const char *Kind,
                            const RefinementResult &R, double Ms);

/// Decides σ_tgt ⊑ σ_src (Def 2.4) for thread \p TgtTid of \p TgtP against
/// thread \p SrcTid of \p SrcP. The programs must share a memory layout.
RefinementResult checkSimpleRefinement(const Program &SrcP, unsigned SrcTid,
                                       const Program &TgtP, unsigned TgtTid,
                                       SeqConfig Cfg = SeqConfig());

/// Convenience overload: single-thread programs (thread 0 vs thread 0).
RefinementResult checkSimpleRefinement(const Program &SrcP,
                                       const Program &TgtP,
                                       SeqConfig Cfg = SeqConfig());

} // namespace pseq

#endif // PSEQ_SEQ_SIMPLEREFINEMENT_H

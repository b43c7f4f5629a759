//===- seq/BehaviorEnum.h - Exhaustive behavior enumeration -----*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bounded exhaustive enumeration of the behaviors S ⇓ ⟨tr, r⟩ (Def 2.1) of
/// a SEQ state: every reachable point contributes a partial behavior
/// ⟨tr, prt(F)⟩, terminated runs contribute ⟨tr, trm(v, F, M)⟩, and runs
/// reaching ⊥ contribute ⟨tr, ⊥⟩. Enumeration is exact for programs whose
/// runs fit in the step budget; otherwise `Cause` records which budget was
/// hit and verdicts
/// derived from the set are "bounded".
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_SEQ_BEHAVIORENUM_H
#define PSEQ_SEQ_BEHAVIORENUM_H

#include "seq/Behavior.h"
#include "seq/SeqMachine.h"
#include "support/Truncation.h"

#include <cstdint>
#include <unordered_map>

namespace pseq {

/// A deduplicated set of behaviors, canonically sorted (behaviorLess) by
/// the enumerator, so renderings of equal sets are equal.
struct BehaviorSet {
  std::vector<SeqBehavior> All;
  /// Which budget (if any) cut the enumeration short.
  TruncationCause Cause = TruncationCause::None;

  /// True when some budget was hit: verdicts derived from the set are
  /// "bounded" rather than exhaustive.
  bool truncated() const { return Cause != TruncationCause::None; }

  /// \returns true when some behavior of the set ⊒-matches \p Tgt.
  /// Hash-indexed on the refinement key (built lazily on first call; do
  /// not mutate All afterwards): only sources whose forced-equal
  /// components match the target are tried, plus the ⊥-ended sources,
  /// which match by trace prefix and stay in a linear side list.
  bool covers(const SeqBehavior &Tgt, LocSet Universe) const;

private:
  mutable std::unordered_multimap<uint64_t, uint32_t> RefineIndex;
  mutable std::vector<uint32_t> BottomSources;
  mutable bool Indexed = false;
  void buildIndex() const;
};

/// Enumerates the behaviors of \p Init under machine \p M: one depth-first
/// walk on the calling thread, whatever M.config().NumThreads says.
BehaviorSet enumerateBehaviors(const SeqMachine &M, const SeqState &Init);

/// Enumerates behaviors of every state in \p Inits (one BehaviorSet per
/// state, in order). With NumThreads > 1 the initial states fan out
/// across the pool — the natural axis for Def 2.4-style sweeps, where
/// each initial state's tree is independent.
std::vector<BehaviorSet>
enumerateBehaviorsBatch(const SeqMachine &M,
                        const std::vector<SeqState> &Inits);

/// Enumerates all initial SEQ states of \p M: P and F range over subsets of
/// the universe, M over functions Universe → Domain ∪ {undef} (zero outside
/// the universe). Def 2.4 quantifies refinement over all of these.
std::vector<SeqState> enumerateInitialStates(const SeqMachine &M);

} // namespace pseq

#endif // PSEQ_SEQ_BEHAVIORENUM_H

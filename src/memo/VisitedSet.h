//===- memo/VisitedSet.h - Fingerprint hash table ----------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A visited-state set over 128-bit canonical fingerprints, with a 32-bit
/// payload per entry (the explorers store sleep-set masks). One
/// open-addressing table with linear probing from the Hi lane; a slot
/// matches only when both lanes do. The table starts at 16 slots and
/// doubles at 62.5% load, so an exploration that visits a handful of
/// states pays for a handful of slots. Not thread-safe: the PS^na
/// explorer inserts from its single-threaded level merge.
///
/// The payload merge is intersection (sleep sets only ever shrink): an
/// insert of an existing key replaces the stored mask with stored∩new and
/// reports whether that strictly shrank it — the Godefroid state-caching
/// correction re-enqueues such states for re-expansion.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_MEMO_VISITEDSET_H
#define PSEQ_MEMO_VISITEDSET_H

#include "memo/Fingerprint.h"
#include "support/NodePool.h"

#include <cstdint>

namespace pseq {
namespace memo {

class VisitedSet {
public:
  VisitedSet();

  struct Outcome {
    bool Inserted;  ///< key was new; Mask stored as given
    bool Shrunk;    ///< key existed and the merged mask strictly shrank
    uint32_t Mask;  ///< the mask now stored for the key
  };

  /// Inserts \p Fp with \p Mask, or — when present — intersects the stored
  /// mask with \p Mask.
  Outcome insertOrMerge(Fp128 Fp, uint32_t Mask);

  /// Number of distinct keys inserted so far.
  uint64_t size() const { return Used; }

private:
  /// An all-zero key marks an empty slot (keys are sealed, never zero).
  struct Slot {
    Fp128 Key;
    uint32_t Mask = 0;
  };

  PoolVector<Slot> Slots;
  uint64_t Used = 0;

  /// \returns the slot holding \p Fp, or the empty slot where it belongs.
  Slot &probe(const Fp128 &Fp);
  void grow();
};

} // namespace memo
} // namespace pseq

#endif // PSEQ_MEMO_VISITEDSET_H

//===- psna/Memory.h - The message memory -----------------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PS^na memory: per location, a list of messages with pairwise
/// disjoint (From, To] ranges, kept sorted by To. Initially every location
/// holds the initialization message ⟨x@0, 0, ⊥⟩ (Def 5.3).
///
/// Each location's list is immutable once built and shared between every
/// state that holds it, with its hash computed once at construction.
/// Copying a memory copies one pointer per location; a step that inserts
/// or changes a message builds a new list for that location only, through
/// update().
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_PSNA_MEMORY_H
#define PSEQ_PSNA_MEMORY_H

#include "psna/Message.h"
#include "support/NodePool.h"

#include <memory>
#include <vector>

namespace pseq {

/// A timestamp slot a new message may occupy at some location.
struct TimeSlot {
  Rational From;
  Rational To;
};
/// The slots slotsAbove() offers, in timestamp order.
using SlotVec = PoolVector<TimeSlot>;

/// One location's messages, sorted by To.
using MsgVec = PoolVector<PsMessage>;

/// The message memory M.
class PsMemory {
  /// One location's messages and their hash.
  struct MsgList {
    MsgVec Msgs;
    uint64_t Hash = 0;
  };
  using ListPtr = std::shared_ptr<const MsgList>;
  PoolVector<ListPtr> PerLoc;

  static ListPtr makeList(MsgVec Ms);

public:
  PsMemory() = default;

  /// Memory with the initialization message for each of \p NumLocs.
  static PsMemory initial(unsigned NumLocs);

  unsigned numLocs() const { return static_cast<unsigned>(PerLoc.size()); }
  const MsgVec &msgs(unsigned Loc) const;

  /// Replaces location \p Loc's list by a copy that \p F edits in place;
  /// every other memory sharing the old list keeps it unchanged. \p F must
  /// leave the list sorted by To and pairwise disjoint.
  template <typename Fn> void update(unsigned Loc, Fn &&F) {
    const MsgVec &Old = msgs(Loc);
    MsgVec Ms;
    Ms.reserve(Old.size() + 1); // room for insert() without regrowing
    Ms.assign(Old.begin(), Old.end());
    F(Ms);
    PerLoc[Loc] = makeList(std::move(Ms));
  }

  /// Inserts a message; asserts its range is disjoint from existing ones.
  void insert(const PsMessage &M);

  /// \returns the message with the given timestamp, or nullptr.
  const PsMessage *find(MsgId Id) const;

  /// Enumerates the distinct placements for a new message at \p Loc whose
  /// timestamp must exceed \p After: for each gap above After, a slot in
  /// the middle of the gap (leaving room on both sides for later inserts),
  /// plus a slot past the maximal message. Gap-midpoint placement is the
  /// order-canonical choice (see DESIGN.md, timestamp normalization).
  SlotVec slotsAbove(unsigned Loc, Rational After) const;

  /// \returns the slot immediately adjacent to the message with timestamp
  /// \p ReadTo (From = ReadTo), used by RMWs — or nothing when another
  /// message already occupies space directly above.
  std::optional<TimeSlot> adjacentSlot(unsigned Loc, Rational ReadTo) const;

  bool operator==(const PsMemory &O) const;
  /// Combines the cached per-location hashes.
  uint64_t hash() const;
  std::string str() const;
};

} // namespace pseq

#endif // PSEQ_PSNA_MEMORY_H

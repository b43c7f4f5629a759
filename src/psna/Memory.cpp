//===- psna/Memory.cpp - The message memory -------------------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "psna/Memory.h"

#include "support/Hashing.h"

#include <algorithm>
#include <cassert>

using namespace pseq;

PsMemory::ListPtr PsMemory::makeList(MsgVec Ms) {
  auto L = std::allocate_shared<MsgList>(PoolAllocator<MsgList>());
  L->Hash = Ms.size();
  for (const PsMessage &M : Ms)
    L->Hash = hashCombine(L->Hash, M.hash());
  L->Msgs = std::move(Ms);
  return L;
}

PsMemory PsMemory::initial(unsigned NumLocs) {
  PsMemory M;
  for (unsigned L = 0; L != NumLocs; ++L)
    M.PerLoc.push_back(makeList(MsgVec{PsMessage::init(L)}));
  return M;
}

const MsgVec &PsMemory::msgs(unsigned Loc) const {
  assert(Loc < PerLoc.size() && "location out of range");
  return PerLoc[Loc]->Msgs;
}

void PsMemory::insert(const PsMessage &M) {
  assert(M.From < M.To && "empty or inverted message range");
  update(M.Loc, [&M](MsgVec &Ms) {
    auto It = std::lower_bound(Ms.begin(), Ms.end(), M,
                               [](const PsMessage &A, const PsMessage &B) {
                                 return A.To < B.To;
                               });
    // Disjointness: the previous message must end at or before M.From, the
    // next must start at or after M.To.
    if (It != Ms.begin())
      assert(std::prev(It)->To <= M.From && "overlapping message ranges");
    if (It != Ms.end())
      assert(M.To <= It->From && "overlapping message ranges");
    Ms.insert(It, M);
  });
}

const PsMessage *PsMemory::find(MsgId Id) const {
  for (const PsMessage &M : msgs(Id.Loc))
    if (M.To == Id.To)
      return &M;
  return nullptr;
}

SlotVec PsMemory::slotsAbove(unsigned Loc, Rational After) const {
  const MsgVec &Ms = msgs(Loc);
  SlotVec Out;
  // Gaps between consecutive messages (and below the first message, which
  // cannot occur in practice since the init message sits at 0).
  for (size_t I = 0; I + 1 < Ms.size(); ++I) {
    Rational GapLo = Ms[I].To;
    Rational GapHi = Ms[I + 1].From;
    if (!(GapLo < GapHi))
      continue; // adjacent messages: no room
    if (GapHi <= After)
      continue; // entirely below the required lower bound
    Rational Lo = GapLo < After ? After : GapLo;
    // Occupy the middle third of the available space so both sides stay
    // insertable for later writes.
    Rational Third = (GapHi - Lo) / Rational(3);
    Out.push_back({Lo + Third, GapHi - Third});
  }
  // Past the maximal message.
  Rational MaxTo = Ms.empty() ? Rational(0) : Ms.back().To;
  Rational Lo = MaxTo < After ? After : MaxTo;
  Out.push_back({Lo + Rational(1, 2), Lo + Rational(1)});
  return Out;
}

std::optional<TimeSlot> PsMemory::adjacentSlot(unsigned Loc,
                                               Rational ReadTo) const {
  const MsgVec &Ms = msgs(Loc);
  for (size_t I = 0, E = Ms.size(); I != E; ++I) {
    if (Ms[I].To != ReadTo)
      continue;
    Rational GapHi;
    if (I + 1 < E) {
      GapHi = Ms[I + 1].From;
      if (!(ReadTo < GapHi))
        return std::nullopt; // something already attached above
      // Leave the upper half of the gap for later (non-adjacent) inserts.
      return TimeSlot{ReadTo, ReadTo.midpoint(GapHi)};
    }
    return TimeSlot{ReadTo, ReadTo + Rational(1)};
  }
  return std::nullopt; // no message with that timestamp
}

bool PsMemory::operator==(const PsMemory &O) const {
  if (PerLoc.size() != O.PerLoc.size())
    return false;
  for (size_t L = 0, E = PerLoc.size(); L != E; ++L) {
    const MsgList &A = *PerLoc[L], &B = *O.PerLoc[L];
    if (&A != &B && (A.Hash != B.Hash || A.Msgs != B.Msgs))
      return false;
  }
  return true;
}

uint64_t PsMemory::hash() const {
  uint64_t H = PerLoc.size();
  for (const ListPtr &L : PerLoc)
    H = hashCombine(H, L->Hash);
  return H;
}

std::string PsMemory::str() const {
  std::string Out;
  for (const ListPtr &L : PerLoc)
    for (const PsMessage &M : L->Msgs)
      Out += M.str() + " ";
  return Out;
}

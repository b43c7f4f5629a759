//===- memo/VisitedSet.cpp - Fingerprint hash table -----------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "memo/VisitedSet.h"

using namespace pseq;
using namespace pseq::memo;

VisitedSet::VisitedSet() : Slots(16) {}

VisitedSet::Slot &VisitedSet::probe(const Fp128 &Fp) {
  size_t CapMask = Slots.size() - 1;
  for (size_t Idx = static_cast<size_t>(Fp.Hi) & CapMask;;
       Idx = (Idx + 1) & CapMask) {
    Slot &S = Slots[Idx];
    if (S.Key.isZero() || S.Key == Fp)
      return S;
  }
}

void VisitedSet::grow() {
  PoolVector<Slot> Old(Slots.size() * 2);
  Old.swap(Slots);
  for (const Slot &S : Old)
    if (!S.Key.isZero())
      probe(S.Key) = S;
}

VisitedSet::Outcome VisitedSet::insertOrMerge(Fp128 Fp, uint32_t NewMask) {
  Fp = Fp.sealed();
  // Grow at 62.5% load, before probing (so probe always finds a slot).
  if ((Used + 1) * 8 > Slots.size() * 5)
    grow();
  Slot &S = probe(Fp);
  if (S.Key.isZero()) {
    S = Slot{Fp, NewMask};
    ++Used;
    return Outcome{true, false, NewMask};
  }
  uint32_t Merged = S.Mask & NewMask;
  bool Shrunk = Merged != S.Mask;
  S.Mask = Merged;
  return Outcome{false, Shrunk, Merged};
}

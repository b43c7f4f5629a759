//===- psna/View.cpp - Thread and message views ---------------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "psna/View.h"

#include "support/Hashing.h"
#include "support/NodePool.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

using namespace pseq;

namespace {

/// \p N zero timestamps in a pooled block.
Rational *allocTimes(unsigned N) {
  auto *P = static_cast<Rational *>(pool::allocate(N * sizeof(Rational)));
  std::uninitialized_default_construct_n(P, N);
  return P;
}

} // namespace

View::View(unsigned NumLocs) : N(NumLocs) {
  if (N > InlineLocs)
    Heap = allocTimes(N);
}

void View::release() {
  if (Heap)
    pool::deallocate(Heap, N * sizeof(Rational));
  Heap = nullptr;
}

View::View(const View &O) : View(O.N) {
  std::copy_n(O.data(), N, data());
}

View::View(View &&O) noexcept
    : N(O.N), Heap(std::exchange(O.Heap, nullptr)) {
  if (!Heap)
    std::copy_n(O.Inline, N, Inline);
  O.N = 0;
}

View &View::operator=(const View &O) {
  if (this == &O)
    return *this;
  if (N != O.N) {
    release();
    N = O.N;
    if (N > InlineLocs)
      Heap = allocTimes(N);
  }
  std::copy_n(O.data(), N, data());
  return *this;
}

View &View::operator=(View &&O) noexcept {
  if (this == &O)
    return *this;
  release();
  N = O.N;
  Heap = std::exchange(O.Heap, nullptr);
  if (!Heap)
    std::copy_n(O.Inline, N, Inline);
  O.N = 0;
  return *this;
}

View View::zero(unsigned NumLocs) { return View(NumLocs); }

View View::single(unsigned NumLocs, unsigned Loc, Rational Time) {
  View V(NumLocs);
  V.set(Loc, Time);
  return V;
}

Rational View::get(unsigned Loc) const {
  assert(Loc < N && "location out of view range");
  return data()[Loc];
}

void View::set(unsigned Loc, Rational Time) {
  assert(Loc < N && "location out of view range");
  data()[Loc] = Time;
}

View View::joined(const View &O) const {
  assert(N == O.N && "joining views of different widths");
  View Out = *this;
  Rational *T = Out.data();
  const Rational *OT = O.data();
  for (unsigned I = 0; I != N; ++I)
    if (T[I] < OT[I])
      T[I] = OT[I];
  return Out;
}

bool View::leq(const View &O) const {
  assert(N == O.N && "comparing views of different widths");
  const Rational *T = data(), *OT = O.data();
  for (unsigned I = 0; I != N; ++I)
    if (OT[I] < T[I])
      return false;
  return true;
}

bool View::operator==(const View &O) const {
  return N == O.N && std::equal(data(), data() + N, O.data());
}

uint64_t View::hash() const {
  uint64_t H = N;
  const Rational *T = data();
  for (unsigned I = 0; I != N; ++I)
    H = hashCombine(H, T[I].hash());
  return H;
}

std::string View::str() const {
  std::string Out = "[";
  const Rational *T = data();
  for (unsigned I = 0; I != N; ++I) {
    if (I)
      Out += ",";
    Out += T[I].str();
  }
  return Out + "]";
}

View pseq::joinMsgView(const View &V, const MsgView &MV) {
  if (!MV.has_value())
    return V;
  return V.joined(*MV);
}

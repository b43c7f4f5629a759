//===- support/ValueDomain.cpp - Finite value domains ---------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "support/ValueDomain.h"

#include <algorithm>
#include <cassert>

using namespace pseq;

ValueDomain ValueDomain::binary() {
  static const ValueDomain D(std::vector<int64_t>{0, 1});
  return D;
}

ValueDomain ValueDomain::ternary() {
  static const ValueDomain D(std::vector<int64_t>{0, 1, 2});
  return D;
}

ValueDomain ValueDomain::upTo(int64_t N) {
  assert(N > 0 && "value domain must be non-empty");
  std::vector<int64_t> Vs;
  Vs.reserve(static_cast<size_t>(N));
  for (int64_t I = 0; I < N; ++I)
    Vs.push_back(I);
  return ValueDomain(std::move(Vs));
}

bool ValueDomain::contains(int64_t V) const {
  return std::find(Vals->begin(), Vals->end(), V) != Vals->end();
}

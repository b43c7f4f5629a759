//===- support/Rational.cpp - Exact rational arithmetic -------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "support/Rational.h"

#include "support/Hashing.h"

#include <cstdio>
#include <cstdlib>

using namespace pseq;

namespace {

using Int128 = __int128;

/// Timestamp arithmetic must be exact: silent wraparound would reorder
/// messages and corrupt view joins. All intermediates are 128-bit; a
/// result that cannot be represented in lowest terms over int64 is a hard
/// error in every build type (debug asserts are not enough — the explorers
/// run optimized).
[[noreturn]] void rationalOverflow(const char *Op) {
  std::fprintf(stderr, "pseq: rational overflow in %s\n", Op);
  std::abort();
}

/// gcd over __int128 magnitudes (std::gcd requires standard integer types,
/// which __int128 is not under -std=c++20 with extensions off).
Int128 gcd128(Int128 A, Int128 B) {
  if (A < 0)
    A = -A;
  if (B < 0)
    B = -B;
  while (B != 0) {
    Int128 T = A % B;
    A = B;
    B = T;
  }
  return A;
}

constexpr Int128 Int64Min = Int128(INT64_MIN);
constexpr Int128 Int64Max = Int128(INT64_MAX);

} // namespace

Rational Rational::make(Int128 N, Int128 D, const char *Op) {
  assert(D != 0 && "rational with zero denominator");
  if (D < 0) {
    N = -N;
    D = -D;
  }
  if (N == 0)
    return Rational();
  Int128 G = gcd128(N, D);
  N /= G;
  D /= G;
  if (N < Int64Min || N > Int64Max || D > Int64Max)
    rationalOverflow(Op);
  Rational R;
  R.Num = static_cast<int64_t>(N);
  R.Den = static_cast<int64_t>(D);
  return R;
}

Rational::Rational(int64_t N, int64_t D) {
  *this = make(Int128(N), Int128(D), "construction");
}

Rational Rational::operator+(const Rational &O) const {
  return make(Int128(Num) * O.Den + Int128(O.Num) * Den,
              Int128(Den) * O.Den, "operator+");
}

Rational Rational::operator-(const Rational &O) const {
  return make(Int128(Num) * O.Den - Int128(O.Num) * Den,
              Int128(Den) * O.Den, "operator-");
}

Rational Rational::operator*(const Rational &O) const {
  return make(Int128(Num) * O.Num, Int128(Den) * O.Den, "operator*");
}

Rational Rational::operator/(const Rational &O) const {
  assert(O.Num != 0 && "rational division by zero");
  return make(Int128(Num) * O.Den, Int128(Den) * O.Num, "operator/");
}

Rational Rational::midpoint(const Rational &O) const {
  return (*this + O) / Rational(2);
}

uint64_t Rational::hash() const {
  return hashCombine(static_cast<uint64_t>(Num), static_cast<uint64_t>(Den));
}

std::string Rational::str() const {
  if (Den == 1)
    return std::to_string(Num);
  return std::to_string(Num) + "/" + std::to_string(Den);
}

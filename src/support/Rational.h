//===- support/Rational.h - Exact rational arithmetic -----------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact rational numbers over int64, used for the dense timestamp domain
/// Time = {0} ∪ Q+ of the promising semantics (Fig. 5 of the paper).
///
/// The model checker needs (a) a strictly ordered dense domain so that a
/// write can always be placed between two existing messages, and (b) exact
/// comparison so view joins are deterministic. Values are always kept in
/// lowest terms with a positive denominator.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_SUPPORT_RATIONAL_H
#define PSEQ_SUPPORT_RATIONAL_H

#include <cassert>
#include <cstdint>
#include <string>

namespace pseq {

/// An exact rational number n/d with d > 0, stored in lowest terms.
///
/// Overflow safety: all arithmetic runs over __int128 intermediates and is
/// exact; a result whose lowest-terms form does not fit int64 aborts with
/// a hard error in every build type (the explorers run optimized, so a
/// debug-only assert would let timestamp comparison silently wrap). In
/// practice the explorers create timestamps only by midpoint() and
/// successor() from small integers and renormalize after every step, so
/// the error path is never taken.
class Rational {
  int64_t Num = 0;
  int64_t Den = 1;

  /// Normalizes N/D into lowest terms with D > 0, aborting (never
  /// wrapping) when the reduced form does not fit int64.
  static Rational make(__int128 N, __int128 D, const char *Op);

public:
  Rational() = default;
  explicit Rational(int64_t N) : Num(N), Den(1) {}
  Rational(int64_t N, int64_t D);

  int64_t num() const { return Num; }
  int64_t den() const { return Den; }

  bool isZero() const { return Num == 0; }
  bool isNegative() const { return Num < 0; }

  Rational operator+(const Rational &O) const;
  Rational operator-(const Rational &O) const;
  Rational operator*(const Rational &O) const;
  Rational operator/(const Rational &O) const;

  bool operator==(const Rational &O) const {
    return Num == O.Num && Den == O.Den;
  }
  bool operator!=(const Rational &O) const { return !(*this == O); }
  bool operator<(const Rational &O) const {
    // Denominators are positive, so cross-multiplication preserves order;
    // 128-bit products never wrap for int64 operands.
    return static_cast<__int128>(Num) * O.Den <
           static_cast<__int128>(O.Num) * Den;
  }
  bool operator<=(const Rational &O) const { return *this < O || *this == O; }
  bool operator>(const Rational &O) const { return O < *this; }
  bool operator>=(const Rational &O) const { return O <= *this; }

  /// \returns the midpoint (this + O) / 2; used to split timestamp intervals.
  Rational midpoint(const Rational &O) const;

  /// \returns this + 1; used to append past the maximal timestamp.
  Rational successor() const { return *this + Rational(1); }

  /// \returns a stable hash of the normalized representation.
  uint64_t hash() const;

  /// Renders "n" or "n/d" for diagnostics.
  std::string str() const;
};

} // namespace pseq

#endif // PSEQ_SUPPORT_RATIONAL_H

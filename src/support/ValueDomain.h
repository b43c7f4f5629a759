//===- support/ValueDomain.h - Finite value domains -------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's set Val is parametric and infinite; every refinement
/// counterexample in the paper distinguishes at most three defined values.
/// All bounded checkers in this reproduction therefore quantify reads,
/// freezes and environment choices over a finite, explicit value domain
/// (plus the distinguished undef, which checkers add themselves where the
/// semantics calls for it).
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_SUPPORT_VALUEDOMAIN_H
#define PSEQ_SUPPORT_VALUEDOMAIN_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace pseq {

/// A finite set of defined integer values used to bound enumeration.
/// Immutable once built: copies share one value list, so copying a domain
/// (every SeqConfig/PsConfig copy does) never allocates. The binary and
/// ternary domains are built once per process.
class ValueDomain {
  std::shared_ptr<const std::vector<int64_t>> Vals;

public:
  ValueDomain() : ValueDomain(binary()) {}
  explicit ValueDomain(std::vector<int64_t> Vs)
      : Vals(std::make_shared<const std::vector<int64_t>>(std::move(Vs))) {}

  /// The default domain used by tests: {0, 1}.
  static ValueDomain binary();
  /// The domain used by the paper-example suites: {0, 1, 2}.
  static ValueDomain ternary();
  /// {0, ..., N-1}.
  static ValueDomain upTo(int64_t N);

  const std::vector<int64_t> &values() const { return *Vals; }
  size_t size() const { return Vals->size(); }
  bool contains(int64_t V) const;
};

} // namespace pseq

#endif // PSEQ_SUPPORT_VALUEDOMAIN_H

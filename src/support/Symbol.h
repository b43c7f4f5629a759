//===- support/Symbol.h - Interned identifier table -------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny string interner mapping identifiers (register and location names
/// in the toy WHILE language) to dense indices. Dense indices let program
/// states be plain vectors, which keeps state hashing and copying cheap in
/// the exhaustive explorers.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_SUPPORT_SYMBOL_H
#define PSEQ_SUPPORT_SYMBOL_H

#include <optional>
#include <string>
#include <vector>

namespace pseq {

/// Maps names to dense indices, preserving insertion order. A table holds
/// one program's registers or locations (at most LocSet::MaxLocs of the
/// latter), so lookups scan the names: no index to build, copy or free.
class SymbolTable {
  std::vector<std::string> Names;

public:
  /// \returns the index of \p Name, interning it on first use.
  unsigned intern(const std::string &Name);

  /// \returns the index of \p Name if already interned.
  std::optional<unsigned> lookup(const std::string &Name) const;

  const std::string &name(unsigned Idx) const;
  unsigned size() const { return static_cast<unsigned>(Names.size()); }
  const std::vector<std::string> &names() const { return Names; }
};

} // namespace pseq

#endif // PSEQ_SUPPORT_SYMBOL_H

//===- support/Symbol.cpp - Interned identifier table ---------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "support/Symbol.h"

#include <algorithm>
#include <cassert>

using namespace pseq;

unsigned SymbolTable::intern(const std::string &Name) {
  if (std::optional<unsigned> Idx = lookup(Name))
    return *Idx;
  Names.push_back(Name);
  return size() - 1;
}

std::optional<unsigned> SymbolTable::lookup(const std::string &Name) const {
  auto It = std::find(Names.begin(), Names.end(), Name);
  if (It == Names.end())
    return std::nullopt;
  return static_cast<unsigned>(It - Names.begin());
}

const std::string &SymbolTable::name(unsigned Idx) const {
  assert(Idx < Names.size() && "symbol index out of range");
  return Names[Idx];
}

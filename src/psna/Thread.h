//===- psna/Thread.h - PS^na thread states ----------------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thread states of PS^na (Fig. 5): T = ⟨σ, V, P⟩ — the program state, the
/// thread's current view, and the set of outstanding promises (identified
/// by location/timestamp into the shared memory).
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_PSNA_THREAD_H
#define PSEQ_PSNA_THREAD_H

#include "lang/ProgState.h"
#include "psna/Memory.h"

#include <algorithm>

namespace pseq {

/// A sorted promise set, or any list of message ids a step builds.
using MsgIds = PoolVector<MsgId>;

/// One PS^na thread ⟨σ, V, P⟩.
struct PsThread {
  ProgState Prog;
  View V;
  MsgIds Promises; // sorted

  bool hasPromise(MsgId Id) const {
    return std::binary_search(Promises.begin(), Promises.end(), Id);
  }

  void addPromise(MsgId Id) {
    Promises.insert(
        std::lower_bound(Promises.begin(), Promises.end(), Id), Id);
  }

  void removePromise(MsgId Id) {
    auto It = std::lower_bound(Promises.begin(), Promises.end(), Id);
    assert(It != Promises.end() && *It == Id && "fulfilling a non-promise");
    Promises.erase(It);
  }

  bool operator==(const PsThread &O) const {
    return V == O.V && Promises == O.Promises && Prog == O.Prog;
  }

  uint64_t hash() const;
};

} // namespace pseq

#endif // PSEQ_PSNA_THREAD_H

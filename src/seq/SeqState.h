//===- seq/SeqState.h - SEQ machine states ----------------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// States of the SEQ machine (§2): S = ⟨σ, P, F, M⟩ where σ is the program
/// state, P the permission set (non-atomic locations that may be safely
/// accessed), F the written-locations set since the last release, and M the
/// non-atomic memory. The error state ⊥ is represented by σ's Error status.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_SEQ_SEQSTATE_H
#define PSEQ_SEQ_SEQSTATE_H

#include "lang/ProgState.h"
#include "support/LocSet.h"
#include "support/NodePool.h"

namespace pseq {

/// A SEQ machine state ⟨σ, P, F, M⟩.
struct SeqState {
  ProgState Prog; ///< σ (⊥ encoded as ProgState::Status::Error)
  LocSet Perm;    ///< P ⊆ Loc_na
  LocSet Written; ///< F ⊆ Loc_na (written since the last release)
  PoolVector<Value> Mem; ///< M : Loc_na → Val (indexed by location id;
                         ///< entries for atomic locations are unused)

  bool isBottom() const { return Prog.isError(); }
  bool isTerminated() const { return Prog.isDone(); }

  bool operator==(const SeqState &O) const {
    return Perm == O.Perm && Written == O.Written && Mem == O.Mem &&
           Prog == O.Prog;
  }
  uint64_t hash() const;
  std::string str(const std::vector<std::string> *LocNames = nullptr) const;
};

} // namespace pseq

#endif // PSEQ_SEQ_SEQSTATE_H

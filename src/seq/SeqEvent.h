//===- seq/SeqEvent.h - SEQ trace labels ------------------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Transition labels of the SEQ machine (Fig. 1). Non-atomic accesses are
/// unlabeled (they do not appear in traces); the labeled transitions are
///
///   choose(v)                              nondeterministic choice
///   R^rlx(x, v), W^rlx(x, v)               relaxed accesses
///   R^acq(x, v, P, P', F, V)               acquire read
///   W^rel(x, v, P, P', F, V)               release write
///
/// plus the extension label print(v) (system call, matched like a return
/// value). The partial order ⊑ on labels (Def 2.3) and the stripped form
/// |e| feeding oracles (Def 3.2) live here too.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_SEQ_SEQEVENT_H
#define PSEQ_SEQ_SEQEVENT_H

#include "lang/Value.h"
#include "memo/Independence.h"
#include "support/LocSet.h"
#include "support/NodePool.h"

#include <string>
#include <utility>
#include <vector>

namespace pseq {

/// A partial function Loc_na ⇀ Val, kept sorted by location. Used for the
/// gained-values map of acquire reads and the released memory M|P of
/// release writes.
class PartialMem {
  PoolVector<std::pair<unsigned, Value>> Entries;

public:
  PartialMem() = default;

  void set(unsigned Loc, Value V);
  const Value *lookup(unsigned Loc) const;
  LocSet domain() const;
  size_t size() const { return Entries.size(); }
  const PoolVector<std::pair<unsigned, Value>> &entries() const {
    return Entries;
  }

  /// Pointwise ⊑ with equal domains: this (target) refines \p Src.
  bool refines(const PartialMem &Src) const;

  /// Locations where the target value does NOT refine the source value
  /// ({y | V_tgt(y) ⋢ V_src(y)} in beh-rel-write of Fig. 2). Locations
  /// missing from either side never enter the set (equal domains expected).
  LocSet nonRefiningLocs(const PartialMem &Src) const;

  bool operator==(const PartialMem &O) const { return Entries == O.Entries; }
  uint64_t hash() const;
  std::string str() const;
};

/// A SEQ trace label.
struct SeqEvent {
  enum class Kind {
    Choose,   ///< choose(v)
    RlxRead,  ///< R^rlx(x, v)
    RlxWrite, ///< W^rlx(x, v)
    AcqRead,  ///< R^acq(x, v, P, P', F, V)
    RelWrite, ///< W^rel(x, v, P, P', F, V)
    AcqFence, ///< fence extension: gains like an acquire read
    RelFence, ///< fence extension: releases like a release write
    Syscall   ///< print(v)
  };

  Kind K = Kind::Choose;
  unsigned Loc = 0; ///< unused for Choose/Syscall/fences
  Value V;
  // Acquire/release payloads:
  LocSet P;     ///< permission set before
  LocSet P2;    ///< permission set after
  LocSet F;     ///< written-locations set at the transition
  PartialMem Vm; ///< gained values (acq) / released memory M|P (rel)

  static SeqEvent choose(Value V);
  static SeqEvent rlxRead(unsigned Loc, Value V);
  static SeqEvent rlxWrite(unsigned Loc, Value V);
  static SeqEvent acqRead(unsigned Loc, Value V, LocSet P, LocSet P2,
                          LocSet F, PartialMem Vm);
  static SeqEvent relWrite(unsigned Loc, Value V, LocSet P, LocSet P2,
                           LocSet F, PartialMem Vm);
  static SeqEvent acqFence(LocSet P, LocSet P2, LocSet F, PartialMem Vm);
  static SeqEvent relFence(LocSet P, LocSet P2, LocSet F, PartialMem Vm);
  static SeqEvent syscall(Value V);

  bool isAcquire() const {
    return K == Kind::AcqRead || K == Kind::AcqFence;
  }
  bool isRelease() const {
    return K == Kind::RelWrite || K == Kind::RelFence;
  }

  /// Label refinement e_tgt ⊑ e_src (Def 2.3, extended to fences/syscalls):
  /// identical up to (a) target write/syscall values refining source
  /// values, (b) F_tgt ⊆ F_src on acquire/release labels, and (c) pointwise
  /// value refinement of the released memory on release labels.
  bool refinesLabel(const SeqEvent &Src) const;

  /// Equality of the stripped forms |e| (Def 3.2): drops the F component.
  bool strippedEquals(const SeqEvent &O) const;

  bool operator==(const SeqEvent &O) const;
  uint64_t hash() const;
  std::string str(const std::vector<std::string> *LocNames = nullptr) const;
};

/// Trace refinement: same length, pointwise label refinement (Def 2.3(2)).
bool traceRefines(const std::vector<SeqEvent> &Tgt,
                  const std::vector<SeqEvent> &Src);

/// Conservative memo::Footprint of one label, for independence reasoning
/// over SEQ traces (memo/Independence.h): choices touch nothing, relaxed
/// accesses touch their location, acquire/release labels (and fences)
/// transfer permissions over arbitrary location sets and are Global,
/// syscalls append to the output order. Note that SEQ *behaviors* embed
/// the trace itself, so reordering independent labels still changes the
/// behavior — this predicate supports clients that reason about state
/// convergence (and the PS^na explorer's footprints mirror its shape); it
/// must never be used to drop trace interleavings from a behavior set.
memo::Footprint footprint(const SeqEvent &E);

/// True when two labels may not commute (conservative; see footprint()).
bool conflicts(const SeqEvent &A, const SeqEvent &B);

/// Per-label matching of the *advanced* refinement (Fig. 2): like
/// refinesLabel, but tracking the commitment set \p R — reset at acquires
/// (after checking F_tgt ∪ R ⊆ F_src) and recomputed at releases
/// (R' = (R \ F_src) ∪ (F_tgt \ F_src) ∪ {y | V_tgt(y) ⋢ V_src(y)}).
/// Shared by the trace matcher and the Fig. 6 simulation checker.
bool advancedLabelMatch(const SeqEvent &Tgt, const SeqEvent &Src, LocSet &R);

} // namespace pseq

#endif // PSEQ_SEQ_SEQEVENT_H

//===- seq/SeqMachine.h - Transitions of SEQ --------------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transition relation of the SEQ machine (Fig. 1), made executable by
/// bounding the two sources of infinite branching:
///
///  * read values (relaxed/acquire reads and choices) range over a finite
///    ValueDomain plus undef;
///  * permission gains/losses and acquired-value maps range over a finite
///    "universe" of non-atomic locations — the footprint of the programs
///    under comparison (untouched locations are invariant, so restricting
///    the universe preserves refinement verdicts; see DESIGN.md).
///
/// Extensions beyond the paper's figure: acquire/release fences (gain/lose
/// permissions like acquire reads / release writes), atomic RMWs (a read
/// part followed by a write part, emitting up to two labels in a single
/// transition), and print system calls.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_SEQ_SEQMACHINE_H
#define PSEQ_SEQ_SEQMACHINE_H

#include "exec/ThreadPool.h"
#include "seq/SeqEvent.h"
#include "seq/SeqState.h"
#include "support/ValueDomain.h"

#include <span>

namespace pseq {

namespace obs {
struct Telemetry;
} // namespace obs

namespace guard {
class ResourceGuard;
} // namespace guard

/// Shared bounding knobs of the SEQ-side checkers.
struct SeqConfig {
  ValueDomain Domain = ValueDomain::ternary();
  LocSet Universe; ///< non-atomic locations subject to P/M enumeration
  unsigned StepBudget = 48;      ///< max transitions per behavior
  unsigned MaxBehaviors = 200000; ///< safety valve for the enumerator
  /// Worker count for the refinement checkers and the enumerator's batch
  /// of initial states (one enumeration is always one DFS): 1 runs
  /// everything on the calling thread (bit-identical results either way;
  /// see DESIGN.md "Parallel execution"), 0 uses all hardware threads.
  /// Defaults to the PSEQ_THREADS environment variable (unset = 1).
  unsigned NumThreads = exec::defaultNumThreads();
  /// Run the static race analyzer over the source program during
  /// translation validation and record its verdict in the result
  /// (opt/Validator.h). The SEQ engines themselves ignore this flag;
  /// --no-lint in the drivers clears it.
  bool Lint = true;
  /// Optional telemetry (borrowed; see obs/Telemetry.h). Null — the
  /// default — keeps every engine on its uninstrumented fast path.
  obs::Telemetry *Telem = nullptr;
  /// Optional resource guard (borrowed; see guard/Guard.h): deadline,
  /// memory budget, cancellation. Null — the default — means ungoverned.
  /// Shared by every worker of the run; a trip surfaces as a Deadline /
  /// MemBudget / Cancelled truncation cause in the bounded verdict.
  guard::ResourceGuard *Guard = nullptr;
};

/// The labels of one SEQ transition: zero, one, or (for RMWs) two.
using SeqLabels = PoolVector<SeqEvent>;

/// One SEQ transition: its trace labels plus the successor state.
struct SeqTransition {
  SeqLabels Labels;
  SeqState Next;
};

/// Every transition from one state, in successors() order. Labels, states
/// and the list itself come from the node pool (support/NodePool.h).
using SeqTransitions = PoolVector<SeqTransition>;

/// The SEQ transition relation for one thread of one program.
class SeqMachine {
  const Program &Prog;
  unsigned Tid;
  SeqConfig Cfg;

public:
  SeqMachine(const Program &Prog, unsigned Tid, SeqConfig Cfg)
      : Prog(Prog), Tid(Tid), Cfg(std::move(Cfg)) {}

  const Program &program() const { return Prog; }
  unsigned tid() const { return Tid; }
  const SeqConfig &config() const { return Cfg; }

  /// \returns ⟨σ_init, P, F, M⟩ for thread Tid.
  SeqState initial(LocSet Perm, LocSet Written,
                   std::span<const Value> Mem) const;

  /// Enumerates every transition from \p S (empty for terminal states).
  SeqTransitions successors(const SeqState &S) const;

  /// The pending program action of \p S (valid for Running states); used by
  /// the refinement matcher to group adversary branches.
  ProgState::Pending pending(const SeqState &S) const {
    return S.Prog.pending(Prog, Tid);
  }

  /// Values a read/choice may resolve to: Domain values, plus undef when
  /// \p IncludeUndef.
  PoolVector<Value> readValues(bool IncludeUndef) const;

  /// All partial memories over \p Dom with values from Domain ∪ {undef}.
  PoolVector<PartialMem> partialMems(LocSet Dom) const;

private:
  /// successors() minus the telemetry accounting.
  SeqTransitions successorsUncounted(const SeqState &S) const;
};

} // namespace pseq

#endif // PSEQ_SEQ_SEQMACHINE_H

//===- seq/Simulation.h - The Fig 6 simulation checker ----------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Appendix A's simulation relation ∼ᴬ (Fig. 6) as a greatest-fixpoint
/// computation over the product of the two SEQ machines — the device the
/// paper's Coq optimizer actually uses (Remark 2, §6). Unlike the
/// trace-based checkers, the simulation is *coinductive*: cycles in the
/// product graph (loops!) are handled exactly, so loop-carrying
/// transformations like Example 1.3's LICM get definitive verdicts
/// whenever the product space is finite.
///
/// A product node is ⟨src SEQ state, tgt SEQ state, commitment set R⟩.
/// A node survives the fixpoint iff
///   * the late-UB game saves it (∀Ω acquire-free source run to ⊥), or
///   * the target is terminated and some unlabeled source continuation
///     terminates with v_tgt ⊑ v_src, F_tgt ∪ R ⊆ F_src, M_tgt ⊑ M_src, or
///   * the target is running, the prt-condition holds (∀Ω acquire-free
///     source run fulfilling F_tgt ∪ R — Fig. 6's big last conjunct), and
///     every target transition has a surviving source response (unlabeled
///     closure + label-matched steps, with Fig. 2's commitment updates).
///
/// The relation this computes entails ⊑w, hence (Thm 6.2) contextual
/// refinement in PS^na. It is the optimizer pipeline's default validation
/// method. Both machines are expanded through interned graphs, once per
/// state per initial state (DESIGN.md implementation note 12).
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_SEQ_SIMULATION_H
#define PSEQ_SEQ_SIMULATION_H

#include "seq/SeqMachine.h"
#include "support/Truncation.h"

#include <string>

namespace pseq {

/// Outcome of the simulation check.
struct SimulationResult {
  bool Holds = true;
  /// True when every product space fit in the node budget and no game hit
  /// its budget: the verdict is then exact even for loop programs.
  bool Complete = true;
  /// Why the check is incomplete (StateBudget for node/game budgets, or a
  /// guard cause — Deadline / MemBudget / Cancelled). None when Complete.
  TruncationCause Cause = TruncationCause::None;
  unsigned ProductNodes = 0;
  std::string Counterexample;
};

/// Decides simulation between thread \p TgtTid of \p TgtP and thread
/// \p SrcTid of \p SrcP, quantified over all initial ⟨P, F, M⟩.
SimulationResult checkSimulation(const Program &SrcP, unsigned SrcTid,
                                 const Program &TgtP, unsigned TgtTid,
                                 SeqConfig Cfg = SeqConfig(),
                                 unsigned MaxNodes = 400000);

/// Convenience overload: single-thread programs.
SimulationResult checkSimulation(const Program &SrcP, const Program &TgtP,
                                 SeqConfig Cfg = SeqConfig(),
                                 unsigned MaxNodes = 400000);

} // namespace pseq

#endif // PSEQ_SEQ_SIMULATION_H

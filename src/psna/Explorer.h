//===- psna/Explorer.h - Exhaustive PS^na exploration -----------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bounded exhaustive exploration of PS^na machine behaviors (Def 5.2):
/// a behavior maps each thread to a return value — extended here with the
/// global sequence of print system calls (footnote 10) — or is ⊥ after a
/// machine failure. The explorer walks the certified machine-step graph
/// with timestamp-normalized state hashing.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_PSNA_EXPLORER_H
#define PSEQ_PSNA_EXPLORER_H

#include "analysis/RaceLint.h"
#include "psna/Machine.h"
#include "support/Truncation.h"

#include <optional>
#include <string>

namespace pseq {

/// One PS^na behavior.
struct PsBehavior {
  bool IsUB = false;
  std::vector<Value> Rets; ///< per-thread return values
  std::vector<Value> Outs; ///< global print sequence

  static PsBehavior ub() {
    PsBehavior B;
    B.IsUB = true;
    return B;
  }

  /// Def 5.3's r_tgt ⊑ r_src: source UB matches anything; otherwise
  /// pointwise value refinement of returns and outputs.
  bool refines(const PsBehavior &Src) const;

  bool operator==(const PsBehavior &O) const {
    return IsUB == O.IsUB && Rets == O.Rets && Outs == O.Outs;
  }
  uint64_t hash() const;

  /// "UB", or "ret(v,...)" optionally prefixed by "out(v...) ".
  std::string str() const;
};

/// The deduplicated outcome set of a program.
struct PsBehaviorSet {
  std::vector<PsBehavior> All;
  /// Which budget (state cap or certification nodes) cut the exploration
  /// short; None when the state space was exhausted.
  TruncationCause Cause = TruncationCause::None;
  unsigned StatesExplored = 0;
  /// Dynamic race observations during exploration (racy-read/racy-write/
  /// racy-update transitions enabled, counted once per expansion site) —
  /// the oracle the static verdict is cross-validated against.
  uint64_t RaceSteps = 0;
  /// Valueless NAMsg marker promises emitted during exploration. Reported
  /// as its own psna.na_markers counter, never folded into behavior or
  /// state tallies.
  uint64_t NaMarkers = 0;
  /// The static analyzer's verdict, when linting ran for this exploration.
  std::optional<analysis::RaceVerdict> Lint;
  /// True when NAMsg markers were suppressed (statically proved safe).
  bool MarkersSkipped = false;
  /// True when the promise-free rule ran this exploration at promise
  /// budget 0 (race-free, no relaxed write, no RMW).
  bool PromisesSkipped = false;

  bool truncated() const { return Cause != TruncationCause::None; }

  bool containsStr(const std::string &S) const;
  bool covers(const PsBehavior &Tgt) const;
  /// Sorted behavior strings (stable across runs).
  std::vector<std::string> strs() const;
};

/// The configuration explorePsna and findPsnaWitness run for a requested
/// one, and the lint verdict that decided it.
struct EffectivePsConfig {
  PsConfig Cfg;
  /// The analyzer's verdict; nullopt when it did not run (Lint off, or
  /// SkipNaMarkers already forced by the caller).
  std::optional<analysis::RaceVerdict> Lint;
};

/// Runs the race lint (when \p Cfg enables it) and resolves the knobs its
/// verdict decides: SkipNaMarkers when no race transition can fire, and
/// PromiseBudget lowered to 0 when moreover no relaxed write or RMW exists
/// (the promise-free rule; DESIGN.md "Promise-free fast path"). Counts
/// each lowering as psna.promise_free_skips.
EffectivePsConfig effectivePsConfig(const Program &P, const PsConfig &Cfg);

/// Explores every behavior of \p P under effectivePsConfig(P, Cfg).
PsBehaviorSet explorePsna(const Program &P, const PsConfig &Cfg);

/// Searches for an execution exhibiting the behavior whose str() equals
/// \p Want and returns it as the sequence of machine states from the
/// initial state to the terminal one (empty when the behavior is not
/// reachable within the bounds). Used by litmus_explorer --witness and by
/// tests that explain an outcome (e.g. Example 5.1's promise story).
std::vector<PsMachineState> findPsnaWitness(const Program &P,
                                            const PsConfig &Cfg,
                                            const std::string &Want);

} // namespace pseq

#endif // PSEQ_PSNA_EXPLORER_H

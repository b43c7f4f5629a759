//===- seq/OracleGame.h - The ∀-oracle adversary game -----------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Def 3.3 quantifies refinement over all oracles (Def 3.2). In unmatched
/// source suffixes — the beh-failure and beh-partial rules of Fig. 2 —
/// this reduces to an adversary game: the oracle resolves every relaxed
/// read value, choice, and permission loss; the source must reach its goal
/// on every resolution, taking no acquire steps. Oracle *progress*
/// guarantees writes of arbitrary values stay enabled; *monotonicity*
/// makes ⊒-labels free along matched prefixes.
///
/// Every game node belongs to the adversary, so the game decides "all
/// paths reach the goal" (AF). A cycle through states that are not goals is
/// an adversary path that never reaches one: a query that meets a state
/// still in progress is a correct false, whatever the search order. Hence
/// every memoized verdict reached within the node budget is exact, and one
/// game can serve many queries.
///
/// Shared by the advanced-refinement matcher (seq/AdvancedRefinement.cpp)
/// and the Fig. 6 simulation checker (seq/Simulation.cpp), both over a
/// SourceGraph.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_SEQ_ORACLEGAME_H
#define PSEQ_SEQ_ORACLEGAME_H

#include "seq/SourceGraph.h"
#include "support/NodePool.h"

namespace pseq {

/// The acquire-free adversary game over one source graph. One game answers
/// any number of queries; rearm() gives the next ones a fresh node budget.
/// Its memo keeps only exact verdicts: an entry computed after the budget
/// ran out is dropped, never stored as a (possibly truncated) false. So a
/// game shared across queries answers each exactly as a fresh game with
/// the same budget would, whenever that fresh game stays within budget.
class OracleGame {
  SourceGraph &G;
  unsigned NodeBudget;
  bool BudgetHit = false;
  uint64_t Nodes = 0;    ///< nodes expanded (memo misses within budget)
  uint64_t MemoHits = 0; ///< queries answered by a finished memo entry

  struct Key {
    uint64_t Remaining;
    unsigned Id;
    bool operator==(const Key &O) const {
      return Remaining == O.Remaining && Id == O.Id;
    }
  };
  struct KeyHash {
    size_t operator()(const Key &K) const;
  };
  enum : char { InProgress = 0, True = 1, False = 2 };
  PoolMap<Key, char, KeyHash> Memo;

  static constexpr uint64_t BottomGoal = ~uint64_t(0);

  bool run(uint64_t Remaining, LocSet Collected, unsigned Id);
  bool runUncached(uint64_t Remaining, unsigned Id);
  bool spendNode();

public:
  OracleGame(SourceGraph &G, unsigned NodeBudget)
      : G(G), NodeBudget(NodeBudget) {}

  /// beh-failure: on every adversary path, the source reaches ⊥ from state
  /// \p Id of the graph without executing an acquire.
  bool robustBottom(unsigned Id) {
    return run(BottomGoal, LocSet::empty(), Id);
  }

  /// beh-partial: on every adversary path, the source (acquire-free)
  /// passes through a running state whose written-locations — current F
  /// plus release-label F's collected along the way — cover \p Need, or
  /// reaches ⊥.
  bool robustFulfill(unsigned Id, LocSet Need) {
    return run(Need.raw(), LocSet::empty(), Id);
  }

  /// Starts a new series of queries with \p Budget nodes to spend and the
  /// budget-hit flag cleared; memoized verdicts carry over.
  void rearm(unsigned Budget) {
    NodeBudget = Budget;
    BudgetHit = false;
  }

  /// True once a query since the last rearm() ran out of budget.
  bool budgetHit() const { return BudgetHit; }

  uint64_t nodes() const { return Nodes; }
  uint64_t memoHits() const { return MemoHits; }
};

} // namespace pseq

#endif // PSEQ_SEQ_ORACLEGAME_H

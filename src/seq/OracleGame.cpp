//===- seq/OracleGame.cpp - The ∀-oracle adversary game -------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "seq/OracleGame.h"

#include "support/Hashing.h"

using namespace pseq;

size_t OracleGame::KeyHash::operator()(const Key &K) const {
  return static_cast<size_t>(hashCombine(K.Remaining, K.Id));
}

bool OracleGame::spendNode() {
  if (NodeBudget == 0) {
    BudgetHit = true;
    return false;
  }
  --NodeBudget;
  ++Nodes;
  return true;
}

bool OracleGame::run(uint64_t Remaining, LocSet Collected, unsigned Id) {
  uint64_t Rem = Remaining == BottomGoal ? BottomGoal
                                         : (Remaining & ~Collected.raw());
  Key K{Rem, Id};
  auto [It, Inserted] = Memo.try_emplace(K, InProgress);
  if (!Inserted) {
    if (It->second != InProgress)
      ++MemoHits;
    return It->second == True; // cycles never achieve the goal
  }
  bool Result = runUncached(Rem, Id);
  if (Result)
    Memo[K] = True;
  else if (BudgetHit)
    Memo.erase(K); // may be the budget's false, not the game's
  else
    Memo[K] = False;
  return Result;
}

bool OracleGame::runUncached(uint64_t Remaining, unsigned Id) {
  if (!spendNode())
    return false;

  const SeqState &S = G.state(Id);
  // ⊥ discharges every goal (the behavior ends with beh-failure).
  if (S.isBottom())
    return true;

  bool IsBottomGoal = Remaining == BottomGoal;
  if (!IsBottomGoal && !S.isTerminated() &&
      LocSet::fromRaw(Remaining).isSubsetOf(S.Written))
    return true; // stop here: prt(F) with commitments fulfilled

  if (S.isTerminated())
    return false; // trm does not witness prt; the ⊥ goal is unreachable

  ProgState::Pending Pend = G.machine().pending(S);

  // Acquire operations are forbidden in unmatched suffixes.
  if ((Pend.K == ProgState::Pending::Kind::Read &&
       Pend.RM == ReadMode::ACQ) ||
      (Pend.K == ProgState::Pending::Kind::Fence &&
       Pend.FM == FenceMode::ACQ) ||
      (Pend.K == ProgState::Pending::Kind::Rmw && Pend.RM == ReadMode::ACQ))
    return false;

  // Every adversary branch must succeed.
  const SourceGraph::Edges &Edges = G.edges(Id);
  if (Edges.empty())
    return false;
  for (const SourceGraph::Edge &E : Edges) {
    LocSet Collected;
    for (const SeqEvent &L : E.Labels)
      if (L.isRelease())
        Collected = Collected.unionWith(L.F);
    if (!run(Remaining, Collected, E.Next))
      return false;
  }
  return true;
}

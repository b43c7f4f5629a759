//===- seq/Simulation.cpp - The Fig 6 simulation checker ------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "seq/Simulation.h"

#include "guard/Guard.h"
#include "seq/BehaviorEnum.h"
#include "seq/OracleGame.h"
#include "seq/SimpleRefinement.h"
#include "support/Hashing.h"

#include <cassert>
#include <deque>
#include <unordered_map>

using namespace pseq;

namespace {

/// One run of the fixpoint for one initial ⟨P, F, M⟩.
class SimChecker {
  const SeqMachine &SrcM;
  const SeqMachine &TgtM;
  LocSet Universe;
  unsigned MaxNodes;
  bool Exhausted = false;
  guard::ResourceGuard *Guard;
  SourceGraph GameGraph; ///< the source states the oracle game has visited
  OracleGame Game;

  //===--------------------------------------------------------------------===
  // Product nodes
  //===--------------------------------------------------------------------===

  struct NodeKey {
    SeqState Src;
    SeqState Tgt;
    uint64_t R;
    bool operator==(const NodeKey &O) const {
      return R == O.R && Src == O.Src && Tgt == O.Tgt;
    }
  };
  struct NodeKeyHash {
    size_t operator()(const NodeKey &K) const {
      uint64_t H = hashCombine(K.R, K.Src.hash());
      return static_cast<size_t>(hashCombine(H, K.Tgt.hash()));
    }
  };

  struct Node {
    bool Alive = true;
    bool Saved = false; ///< unconditionally true (game / terminal check)
    /// One entry per target transition; the node needs a surviving option
    /// in every entry.
    std::vector<std::vector<unsigned>> Edges;
  };

  std::vector<Node> Nodes;
  std::unordered_map<NodeKey, unsigned, NodeKeyHash> Ids;

  /// Unlabeled-reachable source states (memoized per source state).
  std::unordered_map<uint64_t, std::vector<SeqState>> ClosureMemo;

  const std::vector<SeqState> &closure(const SeqState &S) {
    uint64_t H = S.hash();
    auto It = ClosureMemo.find(H);
    if (It != ClosureMemo.end())
      return It->second;
    std::vector<SeqState> Out;
    std::deque<SeqState> Work{S};
    Out.push_back(S);
    // Visited tracking by equality over the (small) closure set.
    auto seen = [&](const SeqState &X) {
      for (const SeqState &Y : Out)
        if (X == Y)
          return true;
      return false;
    };
    while (!Work.empty()) {
      SeqState Cur = Work.front();
      Work.pop_front();
      for (const SeqTransition &T : SrcM.successors(Cur)) {
        if (!T.Labels.empty())
          continue;
        if (seen(T.Next))
          continue;
        Out.push_back(T.Next);
        Work.push_back(T.Next);
      }
    }
    return ClosureMemo.emplace(H, std::move(Out)).first->second;
  }

  /// All (source state, R') pairs reachable by consuming the label
  /// sequence \p Labels from \p S (interleaving unlabeled steps freely).
  void matchResponses(const SeqState &S, const std::vector<SeqEvent> &Labels,
                      size_t Idx, LocSet R,
                      std::vector<std::pair<SeqState, LocSet>> &Out) {
    if (Idx == Labels.size()) {
      Out.push_back({S, R});
      return;
    }
    for (const SeqState &C : closure(S)) {
      for (const SeqTransition &T : SrcM.successors(C)) {
        if (T.Labels.empty())
          continue; // closure already covered unlabeled steps
        if (T.Labels.size() > Labels.size() - Idx)
          continue;
        LocSet CurR = R;
        bool Ok = true;
        for (size_t I = 0; I != T.Labels.size(); ++I) {
          if (!advancedLabelMatch(Labels[Idx + I], T.Labels[I], CurR)) {
            Ok = false;
            break;
          }
        }
        if (Ok)
          matchResponses(T.Next, Labels, Idx + T.Labels.size(), CurR, Out);
      }
    }
  }

  /// Terminal condition (Fig. 6's return clause): some unlabeled source
  /// continuation terminates compatibly, or is already ⊥.
  bool terminalReach(const SeqState &Src, const SeqState &Tgt, LocSet R) {
    Value TgtVal = Tgt.Prog.retVal();
    for (const SeqState &C : closure(Src)) {
      if (C.isBottom())
        return true; // beh-failure with an empty suffix
      if (!C.isTerminated())
        continue;
      if (!TgtVal.refines(C.Prog.retVal()))
        continue;
      if (!Tgt.Written.unionWith(R).isSubsetOf(C.Written))
        continue;
      bool MemOk = true;
      for (unsigned Loc : Universe.members())
        if (!Tgt.Mem[Loc].refines(C.Mem[Loc]))
          MemOk = false;
      if (MemOk)
        return true;
    }
    return false;
  }

  /// Builds (or retrieves) the node for a key; returns its id, or ~0u when
  /// it is immediately false.
  static constexpr unsigned Dead = ~0u;

  unsigned build(const SeqState &Src, const SeqState &Tgt, LocSet R) {
    NodeKey Key{Src, Tgt, R.raw()};
    auto It = Ids.find(Key);
    if (It != Ids.end())
      return Nodes[It->second].Alive ? It->second : Dead;
    if (Nodes.size() >= MaxNodes) {
      Exhausted = true;
      return Dead;
    }
    if (Guard && Guard->checkpoint() != TruncationCause::None) {
      // A guard trip behaves like node exhaustion: the product space is cut
      // short, the caller reports an incomplete (never negative) verdict.
      Exhausted = true;
      return Dead;
    }

    unsigned Id = static_cast<unsigned>(Nodes.size());
    Ids.emplace(Key, Id);
    Nodes.push_back(Node());

    const unsigned SrcId = GameGraph.intern(Src);
    // Unconditional saves: source already ⊥ in the closure is subsumed by
    // the late-UB game (which also explores unlabeled steps).
    if (Game.robustBottom(SrcId)) {
      Nodes[Id].Saved = true;
      return Id;
    }

    if (Tgt.isBottom()) {
      // Only the game can match a ⊥ target.
      Nodes[Id].Alive = false;
      return Dead;
    }
    if (Tgt.isTerminated()) {
      bool Ok = terminalReach(Src, Tgt, R);
      Nodes[Id].Alive = Ok;
      Nodes[Id].Saved = Ok;
      return Ok ? Id : Dead;
    }

    // Running target: the prt-condition must hold here (Fig. 6's last
    // conjunct — every point of the target generates a partial behavior).
    if (!Game.robustFulfill(SrcId, Tgt.Written.unionWith(R))) {
      Nodes[Id].Alive = false;
      return Dead;
    }

    // Edges: every target transition needs a source response.
    std::vector<SeqTransition> TgtSuccs = TgtM.successors(Tgt);
    for (const SeqTransition &T : TgtSuccs) {
      std::vector<std::pair<SeqState, LocSet>> Responses;
      if (T.Labels.empty()) {
        Responses.push_back({Src, R});
      } else {
        matchResponses(Src, T.Labels, 0, R, Responses);
      }
      std::vector<unsigned> Options;
      for (const auto &[NextSrc, NextR] : Responses) {
        unsigned Succ = build(NextSrc, T.Next, NextR);
        if (Succ != Dead)
          Options.push_back(Succ);
      }
      // Note: a successor reported Dead here may be a node still being
      // built higher up the recursion; we only prune *definitely* dead
      // ones. Options may legitimately be empty — then this node dies in
      // the fixpoint (or immediately).
      Nodes[Id].Edges.push_back(std::move(Options));
    }
    // Re-check aliveness after recursion (the map may have been rehashed).
    for (const std::vector<unsigned> &Edge : Nodes[Id].Edges) {
      if (Edge.empty()) {
        Nodes[Id].Alive = false;
        return Dead;
      }
    }
    return Id;
  }

  /// Greatest-fixpoint pruning: kill nodes whose some edge has no living
  /// option, until stable.
  void prune() {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (Node &N : Nodes) {
        if (!N.Alive || N.Saved)
          continue;
        for (const std::vector<unsigned> &Edge : N.Edges) {
          bool AnyAlive = false;
          for (unsigned Succ : Edge)
            if (Nodes[Succ].Alive)
              AnyAlive = true;
          if (!AnyAlive) {
            N.Alive = false;
            Changed = true;
            break;
          }
        }
      }
    }
  }

public:
  SimChecker(const SeqMachine &SrcM, const SeqMachine &TgtM, LocSet Universe,
             unsigned MaxNodes, unsigned GameBudget)
      : SrcM(SrcM), TgtM(TgtM), Universe(Universe), MaxNodes(MaxNodes),
        Guard(SrcM.config().Guard), GameGraph(SrcM),
        Game(GameGraph, GameBudget) {}

  bool run(const SeqState &SrcInit, const SeqState &TgtInit) {
    unsigned Root = build(SrcInit, TgtInit, LocSet::empty());
    if (Root == Dead)
      return false;
    prune();
    return Nodes[Root].Alive;
  }

  bool exhausted() const { return Exhausted || Game.budgetHit(); }
  unsigned nodeCount() const { return static_cast<unsigned>(Nodes.size()); }
};

} // namespace

SimulationResult pseq::checkSimulation(const Program &SrcP, unsigned SrcTid,
                                       const Program &TgtP, unsigned TgtTid,
                                       SeqConfig Cfg, unsigned MaxNodes) {
  assert(sameLayout(SrcP, TgtP) &&
         "simulation requires identical memory layouts");
  Cfg = resolveUniverse(Cfg, SrcP, SrcTid, TgtP, TgtTid);

  SeqMachine SrcM(SrcP, SrcTid, Cfg);
  SeqMachine TgtM(TgtP, TgtTid, Cfg);

  SimulationResult Result;
  std::vector<SeqState> SrcInits = enumerateInitialStates(SrcM);
  std::vector<SeqState> TgtInits = enumerateInitialStates(TgtM);
  assert(SrcInits.size() == TgtInits.size() &&
         "initial-state spaces must coincide");

  const unsigned GameBudget = Cfg.StepBudget * 4096;
  guard::ResourceGuard *G = Cfg.Guard;
  for (size_t Idx = 0, E = SrcInits.size(); Idx != E; ++Idx) {
    if (G && G->checkpoint() != TruncationCause::None) {
      // Remaining initial states go unverified: incomplete, not negative.
      Result.Complete = false;
      noteTruncation(Result.Cause, G->cause());
      return Result;
    }
    SimChecker Checker(SrcM, TgtM, Cfg.Universe, MaxNodes, GameBudget);
    bool Ok = Checker.run(SrcInits[Idx], TgtInits[Idx]);
    Result.ProductNodes += Checker.nodeCount();
    if (Checker.exhausted()) {
      Result.Complete = false;
      noteTruncation(Result.Cause, G && G->stopped()
                                       ? G->cause()
                                       : TruncationCause::StateBudget);
    }
    if (!Ok) {
      if (G && G->stopped()) {
        // The product graph was cut by the trip; a dead root proves
        // nothing. Report incomplete instead of a spurious rejection.
        Result.Complete = false;
        noteTruncation(Result.Cause, G->cause());
        return Result;
      }
      Result.Holds = false;
      const std::vector<std::string> &Names = SrcP.locNames();
      Result.Counterexample =
          "no simulation from initial " + TgtInits[Idx].str(&Names);
      return Result;
    }
  }
  return Result;
}

SimulationResult pseq::checkSimulation(const Program &SrcP,
                                       const Program &TgtP, SeqConfig Cfg,
                                       unsigned MaxNodes) {
  return checkSimulation(SrcP, 0, TgtP, 0, std::move(Cfg), MaxNodes);
}

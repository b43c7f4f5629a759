//===- seq/Simulation.cpp - The Fig 6 simulation checker ------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "seq/Simulation.h"

#include "guard/Guard.h"
#include "obs/Telemetry.h"
#include "seq/BehaviorEnum.h"
#include "seq/InitSweep.h"
#include "seq/OracleGame.h"
#include "seq/SimpleRefinement.h"
#include "seq/SourceGraph.h"
#include "support/Hashing.h"
#include "support/NodePool.h"

#include <algorithm>
#include <cassert>

using namespace pseq;

namespace {

/// A hash of the label fields advancedLabelMatch requires to be equal on
/// both sides: a target label can only match source labels with its key.
uint64_t matchKey(const SeqEvent &E) {
  uint64_t H = hashCombine(static_cast<uint64_t>(E.K), E.Loc);
  switch (E.K) {
  case SeqEvent::Kind::Choose:
  case SeqEvent::Kind::RlxRead:
    return hashCombine(H, E.V.hash());
  case SeqEvent::Kind::RlxWrite:
  case SeqEvent::Kind::Syscall:
    return H; // values need only refine
  case SeqEvent::Kind::AcqRead:
  case SeqEvent::Kind::AcqFence:
    H = hashCombine(hashCombine(H, E.V.hash()), E.Vm.hash());
    [[fallthrough]];
  case SeqEvent::Kind::RelWrite:
  case SeqEvent::Kind::RelFence:
    return hashCombine(hashCombine(H, E.P.raw()), E.P2.raw());
  }
  return H;
}

/// One run of the fixpoint for one initial ⟨P, F, M⟩, over interned graphs
/// of the source and target machines (DESIGN.md "Fig. 6 simulation over
/// interned graphs"). Closures, label-matched responses and the oracle game
/// all read the one source graph, so each source state is expanded once.
class SimChecker {
  SourceGraph Src;
  SourceGraph Tgt;
  OracleGame Game;
  LocSet Universe;
  unsigned MaxNodes;
  bool Exhausted = false;
  guard::ResourceGuard *Guard;

  //===--------------------------------------------------------------------===
  // Product nodes
  //===--------------------------------------------------------------------===

  struct NodeKey {
    unsigned Src;
    unsigned Tgt;
    uint64_t R;
    bool operator==(const NodeKey &O) const {
      return Src == O.Src && Tgt == O.Tgt && R == O.R;
    }
  };
  struct NodeKeyHash {
    size_t operator()(const NodeKey &K) const {
      return static_cast<size_t>(hashCombine(hashCombine(K.R, K.Src), K.Tgt));
    }
  };

  struct Node {
    bool Alive = true;
    bool Saved = false; ///< unconditionally true (game / terminal check)
  };

  PoolVector<Node> Nodes;
  PoolMap<NodeKey, unsigned, NodeKeyHash> Ids;

  /// Flat edge storage. A node has one slot per target transition and needs
  /// a surviving option in every slot. Slot I's options are
  /// Options[SlotEnd[I - 1] (0 for I = 0), SlotEnd[I]), owned by
  /// SlotOwner[I]; a node's slots are appended once it is built.
  PoolVector<unsigned> Options;
  PoolVector<unsigned> SlotEnd;
  PoolVector<unsigned> SlotOwner;

  unsigned slotBegin(unsigned Slot) const {
    return Slot ? SlotEnd[Slot - 1] : 0;
  }

  /// Scratch stacks for build(): a call pushes its responses, options and
  /// slot ends above those of its callers and pops them before returning,
  /// so the recursion allocates nothing per node.
  PoolVector<std::pair<unsigned, LocSet>> ResponseStack;
  PoolVector<unsigned> OptionStack;
  PoolVector<unsigned> SlotEndStack;

  /// Unlabeled-reachable source ids, in BFS order, per source id. A node
  /// map: references survive later insertions.
  PoolMap<unsigned, PoolVector<unsigned>> Closures;

  const PoolVector<unsigned> &closure(unsigned S) {
    auto [It, Inserted] = Closures.try_emplace(S);
    PoolVector<unsigned> &Out = It->second;
    if (!Inserted)
      return Out;
    Out.push_back(S);
    for (size_t Next = 0; Next != Out.size(); ++Next)
      for (const SourceGraph::Edge &E : Src.edges(Out[Next]))
        if (E.Labels.empty() &&
            std::find(Out.begin(), Out.end(), E.Next) == Out.end())
          Out.push_back(E.Next);
    return Out;
  }

  /// A labeled source edge leaving the closure of a source state, keyed by
  /// the matchKey of its first label.
  struct Responder {
    uint64_t Key;
    const SourceGraph::Edge *E; ///< stable: a graph never moves its edges
    bool operator<(const Responder &O) const { return Key < O.Key; }
  };

  /// The labeled edges leaving closure(S), stably sorted by key: each key's
  /// run keeps the closure-then-edge order of a full scan.
  PoolMap<unsigned, PoolVector<Responder>> Responders;

  const PoolVector<Responder> &responders(unsigned S) {
    auto [It, Inserted] = Responders.try_emplace(S);
    PoolVector<Responder> &Out = It->second;
    if (!Inserted)
      return Out;
    for (unsigned C : closure(S))
      for (const SourceGraph::Edge &E : Src.edges(C))
        if (!E.Labels.empty()) // closure already covered unlabeled steps
          Out.push_back({matchKey(E.Labels.front()), &E});
    std::stable_sort(Out.begin(), Out.end());
    return Out;
  }

  /// All (source id, R') pairs reachable by consuming the label sequence
  /// \p Labels from \p S (interleaving unlabeled steps freely), in the
  /// order of a scan over closure(S) and each closure state's edges.
  void matchResponses(unsigned S, const SeqLabels &Labels, size_t Idx,
                      LocSet R,
                      PoolVector<std::pair<unsigned, LocSet>> &Out) {
    if (Idx == Labels.size()) {
      Out.push_back({S, R});
      return;
    }
    const PoolVector<Responder> &All = responders(S);
    auto [First, Last] = std::equal_range(
        All.begin(), All.end(), Responder{matchKey(Labels[Idx]), nullptr});
    for (auto It = First; It != Last; ++It) {
      const SourceGraph::Edge &E = *It->E;
      if (E.Labels.size() > Labels.size() - Idx)
        continue;
      LocSet CurR = R;
      bool Ok = true;
      for (size_t I = 0; I != E.Labels.size(); ++I) {
        if (!advancedLabelMatch(Labels[Idx + I], E.Labels[I], CurR)) {
          Ok = false;
          break;
        }
      }
      if (Ok)
        matchResponses(E.Next, Labels, Idx + E.Labels.size(), CurR, Out);
    }
  }

  /// Terminal condition (Fig. 6's return clause): some unlabeled source
  /// continuation terminates compatibly, or is already ⊥.
  bool terminalReach(unsigned SrcId, const SeqState &T, LocSet R) {
    Value TgtVal = T.Prog.retVal();
    for (unsigned CId : closure(SrcId)) {
      const SeqState &C = Src.state(CId);
      if (C.isBottom())
        return true; // beh-failure with an empty suffix
      if (!C.isTerminated())
        continue;
      if (!TgtVal.refines(C.Prog.retVal()))
        continue;
      if (!T.Written.unionWith(R).isSubsetOf(C.Written))
        continue;
      bool MemOk = true;
      for (unsigned Loc : Universe.members())
        if (!T.Mem[Loc].refines(C.Mem[Loc]))
          MemOk = false;
      if (MemOk)
        return true;
    }
    return false;
  }

  /// Builds (or retrieves) the node for a key; returns its id, or ~0u when
  /// it is immediately false.
  static constexpr unsigned Dead = ~0u;

  unsigned build(unsigned SrcId, unsigned TgtId, LocSet R) {
    NodeKey Key{SrcId, TgtId, R.raw()};
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

    // Unconditional saves: source already ⊥ in the closure is subsumed by
    // the late-UB game (which also explores unlabeled steps).
    if (Game.robustBottom(SrcId)) {
      Nodes[Id].Saved = true;
      return Id;
    }

    const SeqState &T = Tgt.state(TgtId);
    if (T.isBottom()) {
      // Only the game can match a ⊥ target.
      Nodes[Id].Alive = false;
      return Dead;
    }
    if (T.isTerminated()) {
      bool Ok = terminalReach(SrcId, T, R);
      Nodes[Id].Alive = Ok;
      Nodes[Id].Saved = Ok;
      return Ok ? Id : Dead;
    }

    // Running target: the prt-condition must hold here (Fig. 6's last
    // conjunct — every point of the target generates a partial behavior).
    if (!Game.robustFulfill(SrcId, T.Written.unionWith(R))) {
      Nodes[Id].Alive = false;
      return Dead;
    }

    // Edges: every target transition needs a source response.
    const size_t OptionBase = OptionStack.size();
    const size_t SlotBase = SlotEndStack.size();
    bool AnyEmpty = false;
    for (const SourceGraph::Edge &E : Tgt.edges(TgtId)) {
      const size_t ResponseBase = ResponseStack.size();
      if (E.Labels.empty())
        ResponseStack.push_back({SrcId, R});
      else
        matchResponses(SrcId, E.Labels, 0, R, ResponseStack);
      const size_t EdgeOptions = OptionStack.size();
      for (size_t I = ResponseBase, End = ResponseStack.size(); I != End;
           ++I) {
        // By value: the recursion may grow (and move) the stack.
        auto [NextSrc, NextR] = ResponseStack[I];
        unsigned Succ = build(NextSrc, E.Next, NextR);
        if (Succ != Dead)
          OptionStack.push_back(Succ);
      }
      ResponseStack.resize(ResponseBase);
      // Note: a successor reported Dead here may be a node still being
      // built higher up the recursion; we only prune *definitely* dead
      // ones. Options may legitimately be empty — then this node dies in
      // the fixpoint (or immediately).
      AnyEmpty |= OptionStack.size() == EdgeOptions;
      SlotEndStack.push_back(static_cast<unsigned>(OptionStack.size()));
    }
    Options.insert(Options.end(), OptionStack.begin() + OptionBase,
                   OptionStack.end());
    for (size_t I = SlotBase; I != SlotEndStack.size(); ++I) {
      SlotEnd.push_back(static_cast<unsigned>(
          Options.size() - (OptionStack.size() - SlotEndStack[I])));
      SlotOwner.push_back(Id);
    }
    OptionStack.resize(OptionBase);
    SlotEndStack.resize(SlotBase);
    if (AnyEmpty) {
      Nodes[Id].Alive = false;
      return Dead;
    }
    return Id;
  }

  /// Greatest-fixpoint pruning: a node that is not saved dies once some
  /// edge has no living option. Each edge counts its living options; a
  /// worklist of dead nodes walks the reverse edges and decrements them, so
  /// every option is visited a bounded number of times.
  void prune() {
    const unsigned NumNodes = static_cast<unsigned>(Nodes.size());
    const unsigned NumSlots = static_cast<unsigned>(SlotEnd.size());
    // A slot counts when its owner is alive and not saved (saved nodes
    // never die); an option counts when it is alive.
    auto counts = [&](unsigned Slot) {
      const Node &N = Nodes[SlotOwner[Slot]];
      return N.Alive && !N.Saved;
    };
    // Living options per slot, and the reverse edges (option -> slots
    // listing it) in compressed rows: node D's are PredSlots[PredBegin[D],
    // PredBegin[D + 1]).
    PoolVector<unsigned> Live(NumSlots, 0);
    PoolVector<unsigned> PredBegin(NumNodes + 1, 0);
    for (unsigned Slot = 0; Slot != NumSlots; ++Slot) {
      if (!counts(Slot))
        continue;
      for (unsigned I = slotBegin(Slot); I != SlotEnd[Slot]; ++I)
        if (Nodes[Options[I]].Alive) {
          ++Live[Slot];
          ++PredBegin[Options[I] + 1];
        }
    }
    for (unsigned Id = 0; Id != NumNodes; ++Id)
      PredBegin[Id + 1] += PredBegin[Id];
    PoolVector<unsigned> PredSlots(PredBegin[NumNodes]);
    PoolVector<unsigned> Fill(PredBegin.begin(), PredBegin.end() - 1);
    for (unsigned Slot = 0; Slot != NumSlots; ++Slot) {
      if (!counts(Slot))
        continue;
      for (unsigned I = slotBegin(Slot); I != SlotEnd[Slot]; ++I)
        if (Nodes[Options[I]].Alive)
          PredSlots[Fill[Options[I]]++] = Slot;
    }

    PoolVector<unsigned> Work;
    auto kill = [&](unsigned Id) {
      if (Nodes[Id].Alive) {
        Nodes[Id].Alive = false;
        Work.push_back(Id);
      }
    };
    for (unsigned Slot = 0; Slot != NumSlots; ++Slot)
      if (counts(Slot) && Live[Slot] == 0)
        kill(SlotOwner[Slot]);
    while (!Work.empty()) {
      unsigned D = Work.back();
      Work.pop_back();
      for (unsigned I = PredBegin[D]; I != PredBegin[D + 1]; ++I)
        if (--Live[PredSlots[I]] == 0)
          kill(SlotOwner[PredSlots[I]]);
    }
  }

public:
  SimChecker(const SeqMachine &SrcM, const SeqMachine &TgtM, LocSet Universe,
             unsigned MaxNodes, unsigned GameBudget)
      : Src(SrcM), Tgt(TgtM), Game(Src, GameBudget), Universe(Universe),
        MaxNodes(MaxNodes), Guard(SrcM.config().Guard) {}

  bool run(const SeqState &SrcInit, const SeqState &TgtInit) {
    unsigned Root = build(Src.intern(SrcInit), Tgt.intern(TgtInit),
                          LocSet::empty());
    if (Root == Dead)
      return false;
    prune();
    return Nodes[Root].Alive;
  }

  bool exhausted() const { return Exhausted || Game.budgetHit(); }
  unsigned nodeCount() const { return static_cast<unsigned>(Nodes.size()); }
  uint64_t gameNodes() const { return Game.nodes(); }
  unsigned sourceStates() const { return Src.size(); }
};

} // namespace

SimulationResult pseq::checkSimulation(const Program &SrcP, unsigned SrcTid,
                                       const Program &TgtP, unsigned TgtTid,
                                       SeqConfig Cfg, unsigned MaxNodes) {
  assert(sameLayout(SrcP, TgtP) &&
         "simulation requires identical memory layouts");
  Cfg = resolveUniverse(Cfg, SrcP, SrcTid, TgtP, TgtTid);

  obs::Telemetry *Telem = Cfg.Telem;
  obs::ScopedSpan Span(Telem ? Telem->Spans : nullptr, "seq.check.simulation");

  SeqMachine SrcM(SrcP, SrcTid, Cfg);
  SeqMachine TgtM(TgtP, TgtTid, Cfg);

  SimulationResult Result;
  std::vector<SeqState> SrcInits = enumerateInitialStates(SrcM);
  std::vector<SeqState> TgtInits = enumerateInitialStates(TgtM);
  assert(SrcInits.size() == TgtInits.size() &&
         "initial-state spaces must coincide");

  const unsigned GameBudget = Cfg.StepBudget * 4096;
  detail::sweepInits(
      SrcM, TgtM, SrcInits.size(), Result,
      [&](const SeqMachine &SM, const SeqMachine &TM, size_t Idx,
          detail::InitRecord &R) {
        // One graph per machine and one game per initial state: nothing
        // crosses initial states, so no result depends on the worker count.
        SimChecker Checker(SM, TM, Cfg.Universe, MaxNodes, GameBudget);
        bool Ok = Checker.run(SrcInits[Idx], TgtInits[Idx]);
        R.ProductNodes = Checker.nodeCount();
        guard::ResourceGuard *G = SM.config().Guard;
        if (Checker.exhausted()) {
          R.Bounded = true;
          noteTruncation(R.Cause, G && G->stopped()
                                      ? G->cause()
                                      : TruncationCause::StateBudget);
        }
        if (!Ok) {
          if (G && G->stopped()) {
            // The product graph was cut by the trip; a dead root proves
            // nothing. Report incomplete instead of a spurious rejection.
            R.Bounded = true;
            noteTruncation(R.Cause, G->cause());
          } else {
            R.Failed = true;
            const std::vector<std::string> &Names = SrcP.locNames();
            R.Counterexample =
                "no simulation from initial " + TgtInits[Idx].str(&Names);
          }
        }
        if (obs::Telemetry *T = SM.config().Telem) {
          obs::ScopedTally Tally(&T->Counters);
          Tally.slot("seq.sim.nodes") += Checker.nodeCount();
          Tally.slot("seq.sim.game_nodes") += Checker.gameNodes();
          Tally.slot("seq.source.states") += Checker.sourceStates();
        }
      });
  return Result;
}

SimulationResult pseq::checkSimulation(const Program &SrcP,
                                       const Program &TgtP, SeqConfig Cfg,
                                       unsigned MaxNodes) {
  return checkSimulation(SrcP, 0, TgtP, 0, std::move(Cfg), MaxNodes);
}

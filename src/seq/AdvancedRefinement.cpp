//===- seq/AdvancedRefinement.cpp - Fig 2 / Def 3.3 checker ---------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "seq/AdvancedRefinement.h"

#include "guard/Guard.h"
#include "obs/Telemetry.h"
#include "seq/InitSweep.h"
#include "seq/OracleGame.h"
#include "seq/SourceGraph.h"
#include "support/Hashing.h"

#include <cassert>
#include <chrono>
#include <unordered_map>

using namespace pseq;

namespace {

/// Decides whether one target behavior is matched per Fig. 2, for one
/// initial state. Memoization is per-target-behavior (positions index the
/// fixed target trace); the source graph and the oracle game it consults
/// are shared by every behavior of the initial state.
class Matcher {
  SourceGraph &G;
  OracleGame &Game;
  const SeqBehavior &TB;
  LocSet Universe;
  unsigned NodeBudget;
  bool BudgetHit = false;
  uint64_t Nodes = 0;

  // Memo for match(): key is (position, commitment set, source state id).
  struct MatchKey {
    unsigned K;
    uint64_t R;
    unsigned Id;
    bool operator==(const MatchKey &O) const {
      return K == O.K && R == O.R && Id == O.Id;
    }
  };
  struct MatchKeyHash {
    size_t operator()(const MatchKey &Key) const {
      uint64_t H = hashCombine(Key.K, Key.R);
      return static_cast<size_t>(hashCombine(H, Key.Id));
    }
  };
  enum : char { InProgress = 0, True = 1, False = 2 };
  std::unordered_map<MatchKey, char, MatchKeyHash> MatchMemo;

  bool spendNode() {
    if (NodeBudget == 0) {
      BudgetHit = true;
      return false;
    }
    --NodeBudget;
    ++Nodes;
    return true;
  }

public:
  /// Re-arms \p Game with \p NodeBudget nodes: the game gets the same
  /// budget per behavior that the matcher does.
  Matcher(SourceGraph &G, OracleGame &Game, const SeqBehavior &TB,
          LocSet Universe, unsigned NodeBudget)
      : G(G), Game(Game), TB(TB), Universe(Universe), NodeBudget(NodeBudget) {
    Game.rearm(NodeBudget);
  }

  bool budgetHit() const { return BudgetHit || Game.budgetHit(); }

  /// Matcher nodes expanded within budget.
  uint64_t nodes() const { return Nodes; }

  bool run(unsigned SrcInit) { return match(0, LocSet::empty(), SrcInit); }

private:
  //===--------------------------------------------------------------------===
  // Prefix matching (rules beh-rlx, beh-acq-read, beh-rel-write, plus the
  // terminal rules beh-terminal / beh-partial / beh-failure).
  //===--------------------------------------------------------------------===

  bool match(unsigned K, LocSet R, unsigned Id) {
    MatchKey Key{K, R.raw(), Id};
    auto [It, Inserted] = MatchMemo.try_emplace(Key, InProgress);
    if (!Inserted)
      return It->second == True; // cycles contribute nothing new
    bool Result = matchUncached(K, R, Id);
    MatchMemo[Key] = Result ? True : False;
    return Result;
  }

  bool matchUncached(unsigned K, LocSet R, unsigned Id) {
    if (!spendNode())
      return false;

    const SeqState &S = G.state(Id);
    // Source already at ⊥: beh-failure with an empty remaining source
    // trace (no acquire, no oracle constraints).
    if (S.isBottom())
      return true;

    bool AtEnd = K == TB.Trace.size();

    if (S.isTerminated()) {
      // beh-terminal: both traces consumed, target terminated.
      if (!AtEnd || TB.Kind != SeqBehavior::End::Term)
        return false;
      if (!TB.RetVal.refines(S.Prog.retVal()))
        return false;
      if (!TB.F.unionWith(R).isSubsetOf(S.Written))
        return false;
      for (unsigned Loc : Universe.members())
        if (!TB.Mem[Loc].refines(S.Mem[Loc]))
          return false;
      return true;
    }

    // beh-partial: target trace consumed and target still running; the
    // source may extend (acquire-free, oracle-robust) to fulfill
    // outstanding commitments.
    if (AtEnd && TB.Kind == SeqBehavior::End::Partial &&
        Game.robustFulfill(Id, TB.F.unionWith(R)))
      return true;

    // beh-failure at any point: oracle-robust acquire-free run to ⊥.
    if (Game.robustBottom(Id))
      return true;

    // Otherwise advance the source by one transition.
    for (const SourceGraph::Edge &E : G.edges(Id)) {
      if (E.Labels.empty()) {
        // Unlabeled (silent or non-atomic) source step.
        if (match(K, R, E.Next))
          return true;
        continue;
      }
      // Labeled step(s): must match the next target label(s).
      if (AtEnd)
        continue; // equal-length traces required for trm/prt matching
      unsigned Pos = K;
      LocSet CurR = R;
      bool Ok = true;
      for (const SeqEvent &SrcE : E.Labels) {
        if (Pos >= TB.Trace.size()) {
          Ok = false;
          break;
        }
        if (!advancedLabelMatch(TB.Trace[Pos], SrcE, CurR)) {
          Ok = false;
          break;
        }
        ++Pos;
      }
      if (Ok && match(Pos, CurR, E.Next))
        return true;
    }
    return false;
  }
};

} // namespace

RefinementResult pseq::checkAdvancedRefinement(const Program &SrcP,
                                               unsigned SrcTid,
                                               const Program &TgtP,
                                               unsigned TgtTid,
                                               SeqConfig Cfg) {
  assert(sameLayout(SrcP, TgtP) &&
         "refinement requires identical memory layouts");
  Cfg = resolveUniverse(Cfg, SrcP, SrcTid, TgtP, TgtTid);

  obs::Telemetry *Telem = Cfg.Telem;
  obs::ScopedSpan Span(Telem ? Telem->Spans : nullptr, "seq.check.advanced");
  const auto Start = std::chrono::steady_clock::now();

  SeqMachine SrcM(SrcP, SrcTid, Cfg);
  SeqMachine TgtM(TgtP, TgtTid, Cfg);

  RefinementResult Result;
  std::vector<SeqState> SrcInits = enumerateInitialStates(SrcM);
  std::vector<SeqState> TgtInits = enumerateInitialStates(TgtM);
  assert(SrcInits.size() == TgtInits.size() &&
         "initial-state spaces must coincide");
  Result.InitialStates = static_cast<unsigned>(SrcInits.size());

  // Node budget per behavior match, re-armed for the shared oracle game
  // too; generous relative to the behavior enumeration budget (the matcher
  // explores a product space).
  const unsigned NodeBudget = Cfg.StepBudget * 4096;

  detail::sweepInits(
      SrcM, TgtM, SrcInits.size(), Result,
      [&](const SeqMachine &SM, const SeqMachine &TM, size_t Idx,
          detail::InitRecord &R) {
        BehaviorSet Tgt = enumerateBehaviors(TM, TgtInits[Idx]);
        R.Bounded = Tgt.truncated();
        R.Cause = Tgt.Cause;
        R.TgtBehaviors = Tgt.All.size();
        // One source graph and one oracle game serve every target behavior
        // of this initial state (DESIGN.md "⊑w matcher: one source graph
        // per initial state").
        SourceGraph Graph(SM);
        OracleGame Game(Graph, NodeBudget);
        const unsigned SrcInit = Graph.intern(SrcInits[Idx]);
        uint64_t Behaviors = 0, MatchNodes = 0;
        for (const SeqBehavior &TB : Tgt.All) {
          // Matching dominates a loop program's check, so the guard is
          // polled once per target behavior, not just per initial state.
          if (guard::ResourceGuard *G = SM.config().Guard;
              G && G->checkpoint() != TruncationCause::None) {
            R.Bounded = true;
            noteTruncation(R.Cause, G->cause());
            break;
          }
          Matcher M(Graph, Game, TB, Cfg.Universe, NodeBudget);
          bool Matched = M.run(SrcInit);
          ++Behaviors;
          MatchNodes += M.nodes();
          if (M.budgetHit()) {
            R.Bounded = true;
            noteTruncation(R.Cause, TruncationCause::StateBudget);
          }
          if (Matched)
            continue;
          if (M.budgetHit())
            continue; // the match may live past the node budget: already
                      // recorded as bounded, not a definite counterexample
          R.Failed = true;
          const std::vector<std::string> &Names = SrcP.locNames();
          R.Counterexample = "initial " + TgtInits[Idx].str(&Names) +
                             " target behavior " + TB.str(&Names) +
                             " unmatched by source (advanced)";
          break;
        }
        if (obs::Telemetry *T = SM.config().Telem) {
          obs::ScopedTally Tally(&T->Counters);
          Tally.slot("seq.match.behaviors") += Behaviors;
          Tally.slot("seq.match.nodes") += MatchNodes;
          Tally.slot("seq.game.nodes") += Game.nodes();
          Tally.slot("seq.game.memo_hits") += Game.memoHits();
          Tally.slot("seq.source.states") += Graph.size();
        }
      });
  observeRefinementCheck(Telem, "seq.check.advanced", Result,
                         obs::msSince(Start));
  return Result;
}

RefinementResult pseq::checkAdvancedRefinement(const Program &SrcP,
                                               const Program &TgtP,
                                               SeqConfig Cfg) {
  return checkAdvancedRefinement(SrcP, 0, TgtP, 0, std::move(Cfg));
}

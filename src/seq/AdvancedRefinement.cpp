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
#include "support/Hashing.h"

#include <cassert>
#include <chrono>
#include <unordered_map>

using namespace pseq;

namespace {

/// Decides whether one target behavior is matched per Fig. 2, for one
/// initial state. Memoization is per-target-behavior (positions index the
/// fixed target trace).
class Matcher {
  const SeqMachine &SrcM;
  const SeqBehavior &TB;
  LocSet Universe;
  unsigned NodeBudget;
  bool BudgetHit = false;

  // Memo for match(): key is (position, commitment set, source state).
  struct MatchKey {
    unsigned K;
    uint64_t R;
    SeqState S;
    bool operator==(const MatchKey &O) const {
      return K == O.K && R == O.R && S == O.S;
    }
  };
  struct MatchKeyHash {
    size_t operator()(const MatchKey &Key) const {
      uint64_t H = hashCombine(Key.K, Key.R);
      return static_cast<size_t>(hashCombine(H, Key.S.hash()));
    }
  };
  enum : char { InProgress = 0, True = 1, False = 2 };
  std::unordered_map<MatchKey, char, MatchKeyHash> MatchMemo;
  OracleGame Game;

  bool spendNode() {
    if (NodeBudget == 0) {
      BudgetHit = true;
      return false;
    }
    --NodeBudget;
    return true;
  }

public:
  Matcher(const SeqMachine &SrcM, const SeqBehavior &TB, LocSet Universe,
          unsigned NodeBudget)
      : SrcM(SrcM), TB(TB), Universe(Universe), NodeBudget(NodeBudget),
        Game(SrcM, NodeBudget) {}

  bool budgetHit() const { return BudgetHit || Game.budgetHit(); }

  bool run(const SeqState &SrcInit) {
    return match(0, LocSet::empty(), SrcInit);
  }

private:
  //===--------------------------------------------------------------------===
  // Prefix matching (rules beh-rlx, beh-acq-read, beh-rel-write, plus the
  // terminal rules beh-terminal / beh-partial / beh-failure).
  //===--------------------------------------------------------------------===

  bool match(unsigned K, LocSet R, const SeqState &S) {
    MatchKey Key{K, R.raw(), S};
    auto [It, Inserted] = MatchMemo.try_emplace(Key, InProgress);
    if (!Inserted)
      return It->second == True; // cycles contribute nothing new
    bool Result = matchUncached(K, R, S);
    MatchMemo[Key] = Result ? True : False;
    return Result;
  }

  bool matchUncached(unsigned K, LocSet R, const SeqState &S) {
    if (!spendNode())
      return false;

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
        Game.robustFulfill(S, TB.F.unionWith(R)))
      return true;

    // beh-failure at any point: oracle-robust acquire-free run to ⊥.
    if (Game.robustBottom(S))
      return true;

    // Otherwise advance the source by one transition.
    for (const SeqTransition &T : SrcM.successors(S)) {
      if (T.Labels.empty()) {
        // Unlabeled (silent or non-atomic) source step.
        if (match(K, R, T.Next))
          return true;
        continue;
      }
      // Labeled step(s): must match the next target label(s).
      if (AtEnd)
        continue; // equal-length traces required for trm/prt matching
      unsigned Pos = K;
      LocSet CurR = R;
      bool Ok = true;
      for (const SeqEvent &SrcE : T.Labels) {
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
      if (Ok && match(Pos, CurR, T.Next))
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

  // Node budget per behavior match; generous relative to the behavior
  // enumeration budget (the matcher explores a product space).
  const unsigned NodeBudget = Cfg.StepBudget * 4096;

  detail::sweepInits(
      SrcM, TgtM, SrcInits.size(), Result,
      [&](const SeqMachine &SM, const SeqMachine &TM, size_t Idx,
          detail::InitRecord &R) {
        BehaviorSet Tgt = enumerateBehaviors(TM, TgtInits[Idx]);
        R.Bounded = Tgt.truncated();
        R.Cause = Tgt.Cause;
        R.TgtBehaviors = Tgt.All.size();
        for (const SeqBehavior &TB : Tgt.All) {
          // Matching dominates a loop program's check, so the guard is
          // polled once per target behavior, not just per initial state.
          if (guard::ResourceGuard *G = SM.config().Guard;
              G && G->checkpoint() != TruncationCause::None) {
            R.Bounded = true;
            noteTruncation(R.Cause, G->cause());
            return;
          }
          Matcher M(SM, TB, Cfg.Universe, NodeBudget);
          bool Matched = M.run(SrcInits[Idx]);
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
          return;
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

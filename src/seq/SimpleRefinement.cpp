//===- seq/SimpleRefinement.cpp - Def 2.4 decision procedure --------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "seq/SimpleRefinement.h"

#include "obs/Telemetry.h"
#include "seq/InitSweep.h"

#include <cassert>
#include <chrono>

using namespace pseq;

void pseq::observeRefinementCheck(obs::Telemetry *Telem, const char *Kind,
                                  const RefinementResult &R, double Ms) {
  if (!Telem)
    return;
  std::string Prefix = std::string(Kind);
  Telem->Counters.add(Prefix + ".calls");
  if (!R.Holds)
    Telem->Counters.add(Prefix + ".fails");
  if (R.Bounded)
    Telem->Counters.add(Prefix + ".bounded");
  if (Telem->Spans)
    Telem->Spans->instant(Kind, {{"holds", R.Holds},
                                 {"bounded", R.Bounded},
                                 {"cause", truncationCauseName(R.Cause)},
                                 {"initial_states", uint64_t(R.InitialStates)},
                                 {"src_behaviors", R.SrcBehaviors},
                                 {"tgt_behaviors", R.TgtBehaviors},
                                 {"ms", Ms}});
}

SeqConfig pseq::resolveUniverse(SeqConfig Cfg, const Program &SrcP,
                                unsigned SrcTid, const Program &TgtP,
                                unsigned TgtTid) {
  if (!Cfg.Universe.isEmpty())
    return Cfg;
  AccessSummary SrcSum = SrcP.accessSummary(SrcTid);
  AccessSummary TgtSum = TgtP.accessSummary(TgtTid);
  Cfg.Universe = SrcSum.NaAccessed.unionWith(TgtSum.NaAccessed);
  return Cfg;
}

RefinementResult pseq::checkSimpleRefinement(const Program &SrcP,
                                             unsigned SrcTid,
                                             const Program &TgtP,
                                             unsigned TgtTid, SeqConfig Cfg) {
  assert(sameLayout(SrcP, TgtP) &&
         "refinement requires identical memory layouts");
  Cfg = resolveUniverse(Cfg, SrcP, SrcTid, TgtP, TgtTid);

  obs::Telemetry *Telem = Cfg.Telem;
  obs::ScopedSpan Span(Telem ? Telem->Spans : nullptr, "seq.check.simple");
  const auto Start = std::chrono::steady_clock::now();

  SeqMachine SrcM(SrcP, SrcTid, Cfg);
  SeqMachine TgtM(TgtP, TgtTid, Cfg);

  RefinementResult Result;
  std::vector<SeqState> SrcInits = enumerateInitialStates(SrcM);
  std::vector<SeqState> TgtInits = enumerateInitialStates(TgtM);
  assert(SrcInits.size() == TgtInits.size() &&
         "initial-state spaces must coincide");
  Result.InitialStates = static_cast<unsigned>(SrcInits.size());

  detail::sweepInits(
      SrcM, TgtM, SrcInits.size(), Result,
      [&](const SeqMachine &SM, const SeqMachine &TM, size_t Idx,
          detail::InitRecord &R) {
        BehaviorSet Tgt = enumerateBehaviors(TM, TgtInits[Idx]);
        BehaviorSet Src = enumerateBehaviors(SM, SrcInits[Idx]);
        R.Bounded = Tgt.truncated() || Src.truncated();
        R.Cause = Tgt.truncated() ? Tgt.Cause : Src.Cause;
        R.SrcBehaviors = Src.All.size();
        R.TgtBehaviors = Tgt.All.size();
        for (const SeqBehavior &TB : Tgt.All) {
          if (Src.covers(TB, Cfg.Universe))
            continue;
          if (Src.truncated() && isGuardCause(Src.Cause))
            break; // a guard trip leaves an arbitrary source prefix: the
                   // match may live in the unexplored part, so this is
                   // bounded, not a definite counterexample (step-budget
                   // truncation still explores every run to depth, so its
                   // cover test stays meaningful)
          R.Failed = true;
          const std::vector<std::string> &Names = SrcP.locNames();
          R.Counterexample = "initial " + TgtInits[Idx].str(&Names) +
                             " target behavior " + TB.str(&Names) +
                             " unmatched by source";
          return;
        }
      });
  observeRefinementCheck(Telem, "seq.check.simple", Result,
                         obs::msSince(Start));
  return Result;
}

RefinementResult pseq::checkSimpleRefinement(const Program &SrcP,
                                             const Program &TgtP,
                                             SeqConfig Cfg) {
  return checkSimpleRefinement(SrcP, 0, TgtP, 0, std::move(Cfg));
}

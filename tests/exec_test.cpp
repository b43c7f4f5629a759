//===- tests/exec_test.cpp - Parallel execution layer tests ---------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Units for the thread pool, plus the property the whole parallel layer
// is built around: every engine's result is bit-identical for every
// NumThreads. The sweeps run each engine at NumThreads 1, 2, and 8 over
// the corpus and 100 seeded random programs and compare complete results.
// Also holds the BehaviorCap regression tests: the enumerator must not
// count deduplicated re-emissions against the cap (the pre-fix behavior
// truncated sets that fit the budget).
//
//===----------------------------------------------------------------------===//

#include "adequacy/Harness.h"
#include "adequacy/RandomProgram.h"
#include "exec/ThreadPool.h"
#include "litmus/Corpus.h"
#include "obs/Telemetry.h"
#include "opt/Validator.h"
#include "psna/Explorer.h"
#include "seq/AdvancedRefinement.h"
#include "seq/BehaviorEnum.h"
#include "seq/SimpleRefinement.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>

using namespace pseq;

//===----------------------------------------------------------------------===
// ThreadPool
//===----------------------------------------------------------------------===

TEST(ThreadPoolTest, ResolveThreads) {
  EXPECT_GE(exec::hardwareThreads(), 1u);
  EXPECT_EQ(exec::resolveThreads(0), exec::hardwareThreads());
  EXPECT_EQ(exec::resolveThreads(1), 1u);
  EXPECT_EQ(exec::resolveThreads(3), 3u);
}

TEST(ThreadPoolTest, RunExecutesEachIndexExactlyOnce) {
  constexpr unsigned N = 8;
  std::atomic<unsigned> Hits[N] = {};
  exec::ThreadPool::global().run(N, [&](unsigned W) { ++Hits[W]; });
  for (unsigned W = 0; W != N; ++W)
    EXPECT_EQ(Hits[W].load(), 1u) << "worker " << W;
}

TEST(ThreadPoolTest, SingleWorkerRunsInlineAndUnmarked) {
  bool Inside = true;
  exec::ThreadPool::global().run(
      1, [&](unsigned W) {
        EXPECT_EQ(W, 0u);
        // run(1, ...) must leave the caller unmarked so inner engines can
        // still use the pool.
        Inside = exec::ThreadPool::insideWorker();
      });
  EXPECT_FALSE(Inside);
}

TEST(ThreadPoolTest, NestedRunDegradesToInline) {
  std::atomic<unsigned> InnerTotal{0};
  exec::ThreadPool::global().run(4, [&](unsigned) {
    EXPECT_TRUE(exec::ThreadPool::insideWorker());
    // The nested batch runs sequentially on this worker; all indices
    // still execute.
    exec::ThreadPool::global().run(3, [&](unsigned) { ++InnerTotal; });
  });
  EXPECT_EQ(InnerTotal.load(), 12u);
}

TEST(ThreadPoolTest, ParallelForCoversAllItems) {
  for (unsigned Workers : {1u, 3u, 8u}) {
    constexpr size_t Items = 100;
    std::vector<std::atomic<unsigned>> Hits(Items);
    exec::parallelFor(Workers, Items,
                      [&](size_t I, unsigned W) {
                        EXPECT_LT(W, Workers);
                        ++Hits[I];
                      });
    for (size_t I = 0; I != Items; ++I)
      EXPECT_EQ(Hits[I].load(), 1u) << "item " << I;
  }
}

TEST(ThreadPoolTest, BackToBackBatches) {
  // Exercises generation turnover: stale workers must not re-enter an old
  // batch.
  for (int Round = 0; Round != 50; ++Round) {
    std::atomic<unsigned> Count{0};
    exec::ThreadPool::global().run(4, [&](unsigned) { ++Count; });
    ASSERT_EQ(Count.load(), 4u) << "round " << Round;
  }
}

//===----------------------------------------------------------------------===
// Telemetry merge
//===----------------------------------------------------------------------===

TEST(TelemetryMergeTest, MergeCountersSums) {
  obs::Telemetry T;
  T.Counters.add("a", 3);
  obs::Stats S1, S2;
  S1.add("a", 4);
  S1.add("b", 1);
  S2.add("b", 2);
  exec::parallelFor(2, 2, [&](size_t I, unsigned) {
    T.mergeCounters(I == 0 ? S1 : S2);
  });
  EXPECT_EQ(T.Counters.counter("a"), 7u);
  EXPECT_EQ(T.Counters.counter("b"), 3u);
}

//===----------------------------------------------------------------------===
// Determinism sweeps: identical results for every NumThreads
//===----------------------------------------------------------------------===

namespace {

const unsigned ThreadCounts[] = {1, 2, 8};

std::vector<std::string> behaviorStrs(const BehaviorSet &B) {
  std::vector<std::string> Out;
  for (const SeqBehavior &SB : B.All)
    Out.push_back(SB.str());
  return Out;
}

} // namespace

TEST(ThreadInvarianceTest, SeqEnumeration) {
  const char *Programs[] = {
      "atomic x; na y;\nthread { x@rlx := 1; y@na := 2; return 3; }",
      "na x; atomic y;\n"
      "thread { x@na := 1; y@rel := 1; s := y@acq; b := x@na; return b; }",
      "na x;\nthread { c := choose; while (c != 0) { a := x@na; "
      "c := choose; } return 0; }",
  };
  for (const char *Text : Programs) {
    std::unique_ptr<Program> P = prog(Text);
    SeqConfig Base;
    Base.Domain = ValueDomain::binary();
    Base.Universe = P->naLocs();
    Base.StepBudget = 16;

    SeqConfig Ref = Base;
    Ref.NumThreads = 1;
    SeqMachine RefM(*P, 0, Ref);
    std::vector<SeqState> Inits = enumerateInitialStates(RefM);
    ASSERT_FALSE(Inits.empty());
    std::vector<BehaviorSet> Want = enumerateBehaviorsBatch(RefM, Inits);

    for (unsigned N : ThreadCounts) {
      SeqConfig Cfg = Base;
      Cfg.NumThreads = N;
      SeqMachine M(*P, 0, Cfg);
      // Per-init enumeration and the batched fan-out must both match the
      // sequential reference exactly.
      std::vector<BehaviorSet> Got = enumerateBehaviorsBatch(M, Inits);
      ASSERT_EQ(Got.size(), Want.size());
      for (size_t I = 0; I != Want.size(); ++I) {
        EXPECT_EQ(behaviorStrs(Got[I]), behaviorStrs(Want[I]))
            << Text << " init " << I << " threads " << N;
        EXPECT_EQ(Got[I].Cause, Want[I].Cause);
        BehaviorSet Single = enumerateBehaviors(M, Inits[I]);
        EXPECT_EQ(behaviorStrs(Single), behaviorStrs(Want[I]));
        EXPECT_EQ(Single.Cause, Want[I].Cause);
      }
    }
  }
}

TEST(ThreadInvarianceTest, PsnaExploration) {
  for (const LitmusCase &LC : litmusCorpus()) {
    PsConfig Ref;
    Ref.Domain = LC.Domain;
    Ref.PromiseBudget = LC.PromiseBudget;
    Ref.SplitBudget = LC.SplitBudget;
    Ref.NumThreads = 1;
    std::unique_ptr<Program> P = prog(LC.Text);
    PsBehaviorSet Want = explorePsna(*P, Ref);
    for (unsigned N : ThreadCounts) {
      PsConfig Cfg = Ref;
      Cfg.NumThreads = N;
      PsBehaviorSet Got = explorePsna(*P, Cfg);
      EXPECT_EQ(Got.strs(), Want.strs()) << LC.Name << " threads " << N;
      EXPECT_EQ(Got.StatesExplored, Want.StatesExplored) << LC.Name;
      EXPECT_EQ(Got.Cause, Want.Cause) << LC.Name;
    }
  }
}

TEST(ThreadInvarianceTest, RefinementCheckers) {
  for (const RefinementCase &RC : refinementCorpus()) {
    std::unique_ptr<Program> Src = prog(RC.Src);
    std::unique_ptr<Program> Tgt = prog(RC.Tgt);
    SeqConfig Ref;
    Ref.Domain = RC.Domain;
    Ref.StepBudget = RC.StepBudget;
    Ref.NumThreads = 1;
    RefinementResult SimpleWant = checkSimpleRefinement(*Src, *Tgt, Ref);
    RefinementResult AdvWant = checkAdvancedRefinement(*Src, *Tgt, Ref);
    for (unsigned N : {2u, 8u}) {
      SeqConfig Cfg = Ref;
      Cfg.NumThreads = N;
      RefinementResult Simple = checkSimpleRefinement(*Src, *Tgt, Cfg);
      EXPECT_EQ(Simple.Holds, SimpleWant.Holds) << RC.Name;
      EXPECT_EQ(Simple.Bounded, SimpleWant.Bounded) << RC.Name;
      EXPECT_EQ(Simple.Cause, SimpleWant.Cause) << RC.Name;
      EXPECT_EQ(Simple.Counterexample, SimpleWant.Counterexample) << RC.Name;
      EXPECT_EQ(Simple.SrcBehaviors, SimpleWant.SrcBehaviors) << RC.Name;
      EXPECT_EQ(Simple.TgtBehaviors, SimpleWant.TgtBehaviors) << RC.Name;
      RefinementResult Adv = checkAdvancedRefinement(*Src, *Tgt, Cfg);
      EXPECT_EQ(Adv.Holds, AdvWant.Holds) << RC.Name;
      EXPECT_EQ(Adv.Bounded, AdvWant.Bounded) << RC.Name;
      EXPECT_EQ(Adv.Counterexample, AdvWant.Counterexample) << RC.Name;
    }
  }
}

TEST(ThreadInvarianceTest, RandomProgramSweep) {
  // 100 seeded random (source, target) pairs through the SEQ checker: the
  // parallel sweep must reproduce the sequential verdict and
  // counterexample exactly.
  Rng R(2022);
  for (int I = 0; I != 100; ++I) {
    RandomPair Pair = randomRefinementPair(R);
    std::unique_ptr<Program> Src = prog(Pair.Src);
    std::unique_ptr<Program> Tgt = prog(Pair.Tgt);
    SeqConfig Ref;
    Ref.NumThreads = 1;
    RefinementResult Want = checkSimpleRefinement(*Src, *Tgt, Ref);
    for (unsigned N : {2u, 8u}) {
      SeqConfig Cfg = Ref;
      Cfg.NumThreads = N;
      RefinementResult Got = checkSimpleRefinement(*Src, *Tgt, Cfg);
      EXPECT_EQ(Got.Holds, Want.Holds) << Pair.Mutation << " #" << I;
      EXPECT_EQ(Got.Bounded, Want.Bounded) << Pair.Mutation << " #" << I;
      EXPECT_EQ(Got.Counterexample, Want.Counterexample)
          << Pair.Mutation << " #" << I;
    }
  }
}

TEST(ThreadInvarianceTest, AdequacyHarness) {
  for (const char *Name :
       {"ex2.11-slf-across-rel-write", "ex2.12-no-slf-across-rel-acq"}) {
    const RefinementCase &RC = refinementCaseByName(Name);
    PsConfig Ref;
    Ref.PromiseBudget = 0;
    Ref.NumThreads = 1;
    AdequacyRecord Want = runAdequacy(RC, Ref);
    for (unsigned N : {2u, 8u}) {
      PsConfig Cfg = Ref;
      Cfg.NumThreads = N;
      AdequacyRecord Got = runAdequacy(RC, Cfg);
      EXPECT_EQ(Got.SeqSimple, Want.SeqSimple) << Name;
      EXPECT_EQ(Got.SeqAdvanced, Want.SeqAdvanced) << Name;
      EXPECT_EQ(Got.PsnaAllContexts, Want.PsnaAllContexts) << Name;
      EXPECT_EQ(Got.AnyBounded, Want.AnyBounded) << Name;
      ASSERT_EQ(Got.Contexts.size(), Want.Contexts.size()) << Name;
      for (size_t I = 0; I != Want.Contexts.size(); ++I) {
        EXPECT_EQ(Got.Contexts[I].Context, Want.Contexts[I].Context);
        EXPECT_EQ(Got.Contexts[I].Holds, Want.Contexts[I].Holds);
        EXPECT_EQ(Got.Contexts[I].Bounded, Want.Contexts[I].Bounded);
        EXPECT_EQ(Got.Contexts[I].Counterexample,
                  Want.Contexts[I].Counterexample);
      }
    }
  }
}

TEST(ThreadInvarianceTest, ValidatorTelemetryMatches) {
  // The validator's per-thread fan-out merges worker telemetry; counter
  // totals must equal the sequential run's.
  const RefinementCase &RC = refinementCaseByName("ex2.11-slf-across-rel-write");
  std::unique_ptr<Program> Src = prog(RC.Src);
  std::unique_ptr<Program> Tgt = prog(RC.Tgt);

  auto Run = [&](unsigned N) {
    obs::Telemetry Telem;
    SeqConfig Cfg;
    Cfg.Domain = RC.Domain;
    Cfg.StepBudget = RC.StepBudget;
    Cfg.NumThreads = N;
    Cfg.Telem = &Telem;
    ValidationResult V = validateTransform(*Src, *Tgt, Cfg,
                                           ValidationMethod::Advanced);
    EXPECT_TRUE(V.Ok);
    return Telem.Counters.counters();
  };
  EXPECT_EQ(Run(1), Run(8));
}

//===----------------------------------------------------------------------===
// BehaviorCap regressions (satellite: dedup before cap)
//===----------------------------------------------------------------------===

namespace {

BehaviorSet enumWithCap(const Program &P, unsigned Cap, obs::Telemetry *Telem,
                        unsigned StepBudget = 48) {
  SeqConfig Cfg;
  Cfg.Domain = ValueDomain::binary();
  Cfg.Universe = P.naLocs();
  Cfg.MaxBehaviors = Cap;
  Cfg.StepBudget = StepBudget;
  Cfg.NumThreads = 1;
  Cfg.Telem = Telem;
  SeqMachine M(P, 0, Cfg);
  std::vector<SeqState> Inits = enumerateInitialStates(M);
  return enumerateBehaviors(M, Inits.front());
}

} // namespace

TEST(BehaviorCapTest, DuplicatesDoNotCountAgainstCap) {
  // Two na loads repeat the same partial behavior, so the run emits
  // duplicates between the first partial and the terminal. With cap 1 a
  // duplicate arriving at a full set must register as a dedup hit, not a
  // capped emission — the pre-fix accounting checked the cap first and
  // charged every duplicate against it (dedup_hits 0, every post-cap
  // emission counted truncated).
  std::unique_ptr<Program> P =
      prog("na x;\nthread { a := x@na; b := x@na; return 1; }");
  obs::Telemetry Probe;
  BehaviorSet Free = enumWithCap(*P, 200000, &Probe);
  EXPECT_FALSE(Free.truncated());
  uint64_t Dups = Probe.Counters.counter("seq.enum.dedup_hits");
  ASSERT_GT(Dups, 0u)
      << "test program must actually produce duplicate emissions";

  obs::Telemetry Telem;
  BehaviorSet Capped = enumWithCap(*P, 1, &Telem);
  EXPECT_TRUE(Capped.truncated());
  EXPECT_EQ(Capped.Cause, TruncationCause::BehaviorCap);
  EXPECT_EQ(Capped.All.size(), 1u);
  // Duplicates of the one retained behavior are still dedup hits; only
  // genuinely distinct behaviors (here: the terminal) count as capped.
  EXPECT_EQ(Telem.Counters.counter("seq.enum.dedup_hits"), Dups);
  EXPECT_EQ(Telem.Counters.counter("seq.enum.trunc_behavior_cap"),
            Free.All.size() - 1);
}

TEST(BehaviorCapTest, TruncationCauseNotMasked) {
  // An na-read loop repeats one partial behavior until the step budget
  // trips: the enumeration's only genuine bound is StepBudget. With the
  // cap at the exact unique count the cause must stay StepBudget — the
  // pre-fix accounting tripped the cap on the first duplicate and
  // misreported BehaviorCap.
  std::unique_ptr<Program> P = prog(
      "na x;\nthread { a := x@na; while (a != 0) { a := x@na; } "
      "return 0; }");
  SeqConfig Cfg;
  Cfg.Domain = ValueDomain::binary();
  Cfg.Universe = P->naLocs();
  Cfg.StepBudget = 12;
  Cfg.NumThreads = 1;
  SeqMachine M(*P, 0, Cfg);
  bool FoundLoopingInit = false;
  for (const SeqState &Init : enumerateInitialStates(M)) {
    BehaviorSet Free = enumerateBehaviors(M, Init);
    if (Free.Cause != TruncationCause::StepBudget)
      continue;
    FoundLoopingInit = true;
    SeqConfig CapCfg = Cfg;
    CapCfg.MaxBehaviors = static_cast<unsigned>(Free.All.size());
    SeqMachine CapM(*P, 0, CapCfg);
    BehaviorSet Capped = enumerateBehaviors(CapM, Init);
    EXPECT_EQ(Capped.All.size(), Free.All.size());
    EXPECT_EQ(Capped.Cause, TruncationCause::StepBudget);
  }
  EXPECT_TRUE(FoundLoopingInit)
      << "no initial state drove the loop into the step budget";
}

TEST(BehaviorCapTest, CapBelowUniqueStillTruncates) {
  std::unique_ptr<Program> P =
      prog("na x;\nthread { a := x@na; b := x@na; return 1; }");
  BehaviorSet Free = enumWithCap(*P, 200000, nullptr);
  ASSERT_GT(Free.All.size(), 1u);
  unsigned Cap = static_cast<unsigned>(Free.All.size()) - 1;
  BehaviorSet Capped = enumWithCap(*P, Cap, nullptr);
  EXPECT_TRUE(Capped.truncated());
  EXPECT_EQ(Capped.Cause, TruncationCause::BehaviorCap);
  EXPECT_EQ(Capped.All.size(), Cap);
}

//===----------------------------------------------------------------------===
// covers() index (satellite: hash-indexed refinement lookup)
//===----------------------------------------------------------------------===

TEST(CoversIndexTest, IndexedCoversMatchesLinearSemantics) {
  // covers() is hash-indexed on the refinement key; every target behavior
  // found by a full refinement sweep must agree with a brute-force linear
  // scan over the source set.
  std::unique_ptr<Program> P = prog(
      "na x; atomic y;\n"
      "thread { x@na := 1; y@rel := 1; s := y@acq; b := x@na; return b; }");
  SeqConfig Cfg;
  Cfg.Domain = ValueDomain::binary();
  Cfg.Universe = P->naLocs();
  Cfg.NumThreads = 1;
  SeqMachine M(*P, 0, Cfg);
  std::vector<SeqState> Inits = enumerateInitialStates(M);
  ASSERT_FALSE(Inits.empty());
  BehaviorSet Set = enumerateBehaviors(M, Inits.front());
  ASSERT_FALSE(Set.All.empty());
  for (const SeqBehavior &Tgt : Set.All) {
    bool Linear = false;
    for (const SeqBehavior &Src : Set.All)
      Linear |= Tgt.refines(Src, Cfg.Universe);
    EXPECT_EQ(Set.covers(Tgt, Cfg.Universe), Linear) << Tgt.str();
    EXPECT_TRUE(Set.covers(Tgt, Cfg.Universe)) << "⊑ must be reflexive";
  }
}

//===- tests/guard_test.cpp - Resource governance & isolation -------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Covers the pseq-guard layer end to end:
//  * CancellationToken / ResourceGuard unit behavior (sticky first cause,
//    deterministic poll-count trips, expired deadlines, memory charges);
//  * cooperative drain in exec::ThreadPool / parallelFor;
//  * honest bounded verdicts from every engine under a tripped guard —
//    SEQ refinement, PS^na exploration, Fig. 6 simulation, the translation
//    validator, the optimizer pipeline, and the adequacy harness — using
//    tripAfterPolls for determinism (never wall clock);
//  * first-failure-min: a definite failure found before cancellation
//    survives it, at the lowest computed index;
//  * fork isolation outcome classification (ok / fail / crash / deadline /
//    CPU / OOM) and the fuzz campaign's fault-injection self-tests;
//  * delta-debugging shrink of a seeded failing validator pair.
//
//===----------------------------------------------------------------------===//

#include "adequacy/FuzzCampaign.h"
#include "adequacy/Harness.h"
#include "exec/ThreadPool.h"
#include "guard/Guard.h"
#include "guard/Isolate.h"
#include "guard/Shrink.h"
#include "guard/Signals.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "opt/Pipeline.h"
#include "opt/Validator.h"
#include "psna/Explorer.h"
#include "seq/AdvancedRefinement.h"
#include "seq/BehaviorEnum.h"
#include "seq/InitSweep.h"
#include "seq/SimpleRefinement.h"
#include "seq/Simulation.h"

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace pseq;

// TSan instruments every thread; forking a process that ever spawned pool
// workers makes it abort unless configured otherwise. The fork-based tests
// are exercised by the plain and ASan jobs; under TSan they are skipped.
#if defined(__SANITIZE_THREAD__)
#define PSEQ_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PSEQ_TEST_TSAN 1
#endif
#endif
#ifndef PSEQ_TEST_TSAN
#define PSEQ_TEST_TSAN 0
#endif

namespace {

std::unique_ptr<Program> parse(const char *Src) { return parseOrDie(Src); }

// A straight-line program with a shared location: several initial states
// and enough enumeration nodes that a guard can trip mid-run.
const char *kSrcStraight = "na x;\n"
                           "thread {\n"
                           "  a := x@na;\n"
                           "  x@na := a + 1;\n"
                           "  b := x@na;\n"
                           "  return b;\n"
                           "}\n";

// A genuinely failing pair: the target returns a value the source cannot.
const char *kFailSrc = "thread { return 0; }\n";
const char *kFailTgt = "thread { return 1; }\n";

} // namespace

//===----------------------------------------------------------------------===//
// CancellationToken / ResourceGuard units
//===----------------------------------------------------------------------===//

TEST(CancellationTokenTest, CancelIsSticky) {
  guard::CancellationToken T;
  EXPECT_FALSE(T.cancelled());
  EXPECT_FALSE(T.poll());
  T.cancel();
  EXPECT_TRUE(T.cancelled());
  EXPECT_TRUE(T.poll());
  EXPECT_TRUE(T.poll()); // stays tripped
}

TEST(CancellationTokenTest, TripAfterPollsIsExact) {
  guard::CancellationToken T;
  T.tripAfterPolls(3);
  EXPECT_FALSE(T.poll());
  EXPECT_FALSE(T.poll());
  EXPECT_FALSE(T.poll());
  EXPECT_TRUE(T.poll()); // the 4th poll trips
  EXPECT_TRUE(T.cancelled());
  EXPECT_TRUE(T.poll());
}

TEST(ResourceGuardTest, TokenCancellationTripsCheckpoint) {
  guard::CancellationToken T;
  guard::ResourceGuard G;
  G.setToken(&T);
  EXPECT_EQ(G.checkpoint(), TruncationCause::None);
  EXPECT_FALSE(G.stopped());
  T.cancel();
  EXPECT_EQ(G.checkpoint(), TruncationCause::Cancelled);
  EXPECT_TRUE(G.stopped());
  EXPECT_EQ(G.cause(), TruncationCause::Cancelled);
  EXPECT_TRUE(G.stopFlag().load());
}

TEST(ResourceGuardTest, ExpiredDeadlineTripsOnFirstCheckpoint) {
  // The per-guard clock stride starts at 0, so the very first checkpoint
  // consults the clock: an already-expired deadline trips deterministically.
  guard::ResourceGuard G;
  G.setDeadlineInMs(0);
  EXPECT_EQ(G.checkpoint(), TruncationCause::Deadline);
  EXPECT_EQ(G.cause(), TruncationCause::Deadline);
}

TEST(ResourceGuardTest, ChargeTripsMemBudget) {
  guard::ResourceGuard G;
  G.setMemLimitBytes(1024);
  G.charge(512);
  EXPECT_FALSE(G.stopped());
  EXPECT_EQ(G.memUsedBytes(), 512u);
  G.charge(1024); // 1536 > 1024
  EXPECT_TRUE(G.stopped());
  EXPECT_EQ(G.cause(), TruncationCause::MemBudget);
  EXPECT_EQ(G.checkpoint(), TruncationCause::MemBudget);
}

TEST(ResourceGuardTest, FirstCauseWins) {
  guard::CancellationToken T;
  guard::ResourceGuard G;
  G.setToken(&T);
  G.setMemLimitBytes(1);
  G.charge(100); // MemBudget trips first
  T.cancel();    // later cancellation must not rewrite the cause
  EXPECT_EQ(G.checkpoint(), TruncationCause::MemBudget);
  EXPECT_EQ(G.cause(), TruncationCause::MemBudget);
}

TEST(ResourceGuardTest, ResetClearsTripState) {
  guard::ResourceGuard G;
  G.setMemLimitBytes(10);
  G.charge(100);
  ASSERT_TRUE(G.stopped());
  G.reset();
  EXPECT_FALSE(G.stopped());
  EXPECT_EQ(G.cause(), TruncationCause::None);
  EXPECT_EQ(G.memUsedBytes(), 0u);
  EXPECT_FALSE(G.stopFlag().load());
  EXPECT_EQ(G.checkpoint(), TruncationCause::None);
}

TEST(TruncationTest, NamesForGuardCauses) {
  EXPECT_STREQ(truncationCauseName(TruncationCause::Deadline), "deadline");
  EXPECT_STREQ(truncationCauseName(TruncationCause::MemBudget), "mem-budget");
  EXPECT_STREQ(truncationCauseName(TruncationCause::Cancelled), "cancelled");
}

//===----------------------------------------------------------------------===//
// Fold plumbing: every cause survives the InitSweep merge
//===----------------------------------------------------------------------===//

TEST(InitSweepFoldTest, EveryCauseSurvivesTheMerge) {
  const TruncationCause Causes[] = {
      TruncationCause::StepBudget, TruncationCause::BehaviorCap,
      TruncationCause::StateBudget, TruncationCause::CertBudget,
      TruncationCause::Deadline,    TruncationCause::MemBudget,
      TruncationCause::Cancelled};
  for (TruncationCause C : Causes) {
    RefinementResult Result;
    detail::InitRecord Clean;
    Clean.SrcBehaviors = 1;
    EXPECT_TRUE(detail::foldInitRecord(Result, Clean));
    detail::InitRecord Bounded;
    Bounded.Bounded = true;
    Bounded.Cause = C;
    EXPECT_TRUE(detail::foldInitRecord(Result, Bounded));
    EXPECT_TRUE(Result.Bounded);
    EXPECT_EQ(Result.Cause, C) << truncationCauseName(C);
    EXPECT_TRUE(Result.Holds); // bounded, but not failed
  }
}

TEST(InitSweepFoldTest, FirstCauseWinsAcrossRecords) {
  RefinementResult Result;
  detail::InitRecord A;
  A.Bounded = true;
  A.Cause = TruncationCause::Deadline;
  detail::InitRecord B;
  B.Bounded = true;
  B.Cause = TruncationCause::Cancelled;
  EXPECT_TRUE(detail::foldInitRecord(Result, A));
  EXPECT_TRUE(detail::foldInitRecord(Result, B));
  EXPECT_EQ(Result.Cause, TruncationCause::Deadline);
}

TEST(InitSweepFoldTest, DefiniteFailureStopsTheFold) {
  RefinementResult Result;
  detail::InitRecord Bounded;
  Bounded.Bounded = true;
  Bounded.Cause = TruncationCause::Cancelled;
  detail::InitRecord Failed;
  Failed.Failed = true;
  Failed.Counterexample = "cex";
  EXPECT_TRUE(detail::foldInitRecord(Result, Bounded));
  EXPECT_FALSE(detail::foldInitRecord(Result, Failed));
  EXPECT_FALSE(Result.Holds);
  EXPECT_EQ(Result.Counterexample, "cex");
  EXPECT_TRUE(Result.Bounded); // the skipped prefix stays visible
}

//===----------------------------------------------------------------------===//
// ThreadPool cooperative drain
//===----------------------------------------------------------------------===//

TEST(ThreadPoolDrainTest, PreCancelledBatchNeverRunsBodies) {
  std::atomic<bool> Cancel{true};
  std::atomic<unsigned> Ran{0};
  exec::ThreadPool::global().run(
      4, [&](unsigned) { Ran.fetch_add(1); }, &Cancel);
  EXPECT_EQ(Ran.load(), 0u); // drained: claimed and completed, not run
}

TEST(ThreadPoolDrainTest, PreCancelledParallelForSkipsAllItems) {
  std::atomic<bool> Cancel{true};
  std::atomic<unsigned> Ran{0};
  exec::parallelFor(
      4, 64, [&](size_t, unsigned) { Ran.fetch_add(1); }, &Cancel);
  EXPECT_EQ(Ran.load(), 0u);
}

TEST(ThreadPoolDrainTest, MidBatchCancellationStopsQueuedItems) {
  // Item 0 cancels; items claimed afterwards are drained. With dynamic
  // claiming the exact count varies, but the batch always joins and at
  // least the canceller ran.
  std::atomic<bool> Cancel{false};
  std::atomic<unsigned> Ran{0};
  exec::parallelFor(
      2, 1024,
      [&](size_t Item, unsigned) {
        Ran.fetch_add(1);
        if (Item == 0)
          Cancel.store(true);
      },
      &Cancel);
  EXPECT_GE(Ran.load(), 1u);
  EXPECT_LT(Ran.load(), 1024u);
}

//===----------------------------------------------------------------------===//
// InitSweep under cancellation: lowest computed failure wins
//===----------------------------------------------------------------------===//

TEST(InitSweepTest, FailureFoundBeforeCancellationSurvivesIt) {
  auto P = parse(kSrcStraight);
  guard::CancellationToken Tok;
  guard::ResourceGuard G;
  G.setToken(&Tok);
  SeqConfig Cfg;
  Cfg.NumThreads = 4;
  Cfg.Guard = &G;
  SeqMachine M(*P, 0, Cfg);

  constexpr size_t NumInits = 64;
  constexpr size_t FirstFail = 8;
  RefinementResult Result;
  detail::sweepInits(
      M, M, NumInits, Result,
      [&](const SeqMachine &, const SeqMachine &, size_t Idx,
          detail::InitRecord &R) {
        if (G.checkpoint() != TruncationCause::None) {
          R.Bounded = true;
          R.Cause = G.cause();
          return;
        }
        R.SrcBehaviors = 1;
        if (Idx >= FirstFail) {
          R.Failed = true;
          R.Counterexample = "init " + std::to_string(Idx);
          Tok.cancel(); // failure first, cancellation second
        }
      });

  // The first-failure bound guarantees no index at or below the smallest
  // computed failure is skipped, so the fold reports exactly index 8 even
  // though the guard tripped while later indices were in flight.
  EXPECT_FALSE(Result.Holds);
  EXPECT_EQ(Result.Counterexample, "init " + std::to_string(FirstFail));
}

//===----------------------------------------------------------------------===//
// Engine governance: deterministic bounded verdicts via tripAfterPolls
//===----------------------------------------------------------------------===//

namespace {

SeqConfig governedSeq(guard::ResourceGuard *G, unsigned Threads = 1) {
  SeqConfig Cfg;
  Cfg.NumThreads = Threads;
  Cfg.Guard = G;
  return Cfg;
}

} // namespace

TEST(EngineGovernanceTest, SimpleRefinementCancelsHonestly) {
  auto P = parse(kSrcStraight);
  guard::CancellationToken Tok;
  Tok.tripAfterPolls(0); // first checkpoint trips
  guard::ResourceGuard G;
  G.setToken(&Tok);
  RefinementResult R = checkSimpleRefinement(*P, *P, governedSeq(&G));
  EXPECT_TRUE(R.Holds) << "a skipped check must not report failure";
  EXPECT_TRUE(R.Bounded);
  EXPECT_EQ(R.Cause, TruncationCause::Cancelled);
}

TEST(EngineGovernanceTest, AdvancedRefinementCancelsHonestly) {
  auto P = parse(kSrcStraight);
  guard::CancellationToken Tok;
  Tok.tripAfterPolls(0);
  guard::ResourceGuard G;
  G.setToken(&Tok);
  RefinementResult R = checkAdvancedRefinement(*P, *P, governedSeq(&G));
  EXPECT_TRUE(R.Holds);
  EXPECT_TRUE(R.Bounded);
  EXPECT_EQ(R.Cause, TruncationCause::Cancelled);
}

TEST(EngineGovernanceTest, MidRunCancellationIsDeterministicSingleThreaded) {
  auto P = parse(kSrcStraight);
  auto Run = [&] {
    guard::CancellationToken Tok;
    Tok.tripAfterPolls(10);
    guard::ResourceGuard G;
    G.setToken(&Tok);
    return checkSimpleRefinement(*P, *P, governedSeq(&G, /*Threads=*/1));
  };
  RefinementResult A = Run();
  RefinementResult B = Run();
  EXPECT_TRUE(A.Bounded);
  EXPECT_EQ(A.Cause, TruncationCause::Cancelled);
  // Same poll budget, one thread: the Nth checkpoint is the same node.
  EXPECT_EQ(A.Holds, B.Holds);
  EXPECT_EQ(A.SrcBehaviors, B.SrcBehaviors);
  EXPECT_EQ(A.TgtBehaviors, B.TgtBehaviors);
  EXPECT_EQ(A.Counterexample, B.Counterexample);
}

TEST(EngineGovernanceTest, AdvancedMatcherPollsTheGuard) {
  // One initial state (no non-atomic locations) and several target
  // behaviors (the atomic reads may return any domain value).
  auto P = parse("atomic z;\n"
                 "thread { a := z@rlx; b := z@rlx; return a + b; }\n");
  // Count the checkpoints the target enumeration takes on its own.
  guard::ResourceGuard Probe;
  SeqMachine TM(*P, 0, governedSeq(&Probe));
  std::vector<SeqState> Inits = enumerateInitialStates(TM);
  ASSERT_EQ(Inits.size(), 1u);
  BehaviorSet Tgt = enumerateBehaviors(TM, Inits[0]);
  ASSERT_FALSE(Tgt.truncated());
  ASSERT_GT(Tgt.All.size(), 1u);
  const uint64_t EnumPolls = Probe.checkpointPolls();

  // One poll for the initial state plus the enumeration's polls succeed;
  // the next checkpoint — the matcher's first — trips.
  guard::CancellationToken Tok;
  Tok.tripAfterPolls(1 + EnumPolls);
  guard::ResourceGuard G;
  G.setToken(&Tok);
  RefinementResult R = checkAdvancedRefinement(*P, *P, governedSeq(&G));
  EXPECT_TRUE(R.Holds) << "an unfinished match must not report failure";
  EXPECT_TRUE(R.Bounded) << "the trip during matching must be reported";
  EXPECT_EQ(R.Cause, TruncationCause::Cancelled);
}

TEST(EngineGovernanceTest, GuardCauseDisplacesBudgetCause) {
  // A loop program truncated by the step budget in every initial state,
  // then cut short by the guard: the guard is what the verdict names.
  auto P = parse("na x;\n"
                 "thread { c := choose; while (c != 0) { a := x@na; "
                 "c := choose; } return 0; }\n");
  auto Cfg = [](guard::ResourceGuard *G) {
    SeqConfig C = governedSeq(G);
    C.Domain = ValueDomain::binary();
    C.StepBudget = 8;
    return C;
  };
  guard::ResourceGuard Probe;
  RefinementResult Full = checkAdvancedRefinement(*P, *P, Cfg(&Probe));
  ASSERT_EQ(Full.Cause, TruncationCause::StepBudget);
  guard::CancellationToken Tok;
  Tok.tripAfterPolls(Probe.checkpointPolls() / 2);
  guard::ResourceGuard G;
  G.setToken(&Tok);
  RefinementResult R = checkAdvancedRefinement(*P, *P, Cfg(&G));
  EXPECT_TRUE(R.Holds);
  EXPECT_TRUE(R.Bounded);
  EXPECT_EQ(R.Cause, TruncationCause::Cancelled);
}

TEST(EngineGovernanceTest, SeqDeadlineReportsDeadlineCause) {
  auto P = parse(kSrcStraight);
  guard::ResourceGuard G;
  G.setDeadlineInMs(0); // expired before the first checkpoint
  RefinementResult R = checkAdvancedRefinement(*P, *P, governedSeq(&G));
  EXPECT_TRUE(R.Holds);
  EXPECT_TRUE(R.Bounded);
  EXPECT_EQ(R.Cause, TruncationCause::Deadline);
}

TEST(EngineGovernanceTest, SeqMemBudgetReportsMemCause) {
  auto P = parse(kSrcStraight);
  guard::ResourceGuard G;
  G.setMemLimitBytes(1); // first retained behavior trips
  RefinementResult R = checkSimpleRefinement(*P, *P, governedSeq(&G));
  EXPECT_TRUE(R.Holds);
  EXPECT_TRUE(R.Bounded);
  EXPECT_EQ(R.Cause, TruncationCause::MemBudget);
}

TEST(EngineGovernanceTest, MultiThreadedCancelledRunStillBounded) {
  // Content may vary across worker counts under cancellation; the verdict
  // shape (Bounded + Cancelled, no spurious failure) may not.
  auto P = parse(kSrcStraight);
  guard::CancellationToken Tok;
  Tok.cancel();
  guard::ResourceGuard G;
  G.setToken(&Tok);
  RefinementResult R =
      checkSimpleRefinement(*P, *P, governedSeq(&G, /*Threads=*/4));
  EXPECT_TRUE(R.Holds);
  EXPECT_TRUE(R.Bounded);
  EXPECT_EQ(R.Cause, TruncationCause::Cancelled);
}

TEST(EngineGovernanceTest, FailureBeforeTripStaysDefinite) {
  auto Src = parse(kFailSrc);
  auto Tgt = parse(kFailTgt);
  // Ungoverned: the pair genuinely fails.
  RefinementResult Plain = checkSimpleRefinement(*Src, *Tgt, SeqConfig());
  ASSERT_FALSE(Plain.Holds);
  // Governed with a poll budget large enough to find the failure first:
  // the verdict stays a definite failure, not a bounded unknown.
  guard::CancellationToken Tok;
  Tok.tripAfterPolls(100000);
  guard::ResourceGuard G;
  G.setToken(&Tok);
  RefinementResult R = checkSimpleRefinement(*Src, *Tgt, governedSeq(&G));
  EXPECT_FALSE(R.Holds);
  EXPECT_EQ(R.Counterexample, Plain.Counterexample);
}

TEST(EngineGovernanceTest, PsnaExplorationCancelsHonestly) {
  auto P = parse("atomic z;\n"
                 "thread { z@rlx := 1; return 0; }\n"
                 "thread { a := z@rlx; return a; }\n");
  guard::CancellationToken Tok;
  Tok.tripAfterPolls(0);
  guard::ResourceGuard G;
  G.setToken(&Tok);
  PsConfig Cfg;
  Cfg.NumThreads = 1;
  Cfg.Guard = &G;
  PsBehaviorSet B = explorePsna(*P, Cfg);
  EXPECT_TRUE(B.truncated());
  EXPECT_EQ(B.Cause, TruncationCause::Cancelled);
}

TEST(EngineGovernanceTest, PsnaMemBudgetReportsMemCause) {
  auto P = parse("atomic z;\n"
                 "thread { z@rlx := 1; return 0; }\n"
                 "thread { a := z@rlx; return a; }\n");
  guard::ResourceGuard G;
  G.setMemLimitBytes(1);
  PsConfig Cfg;
  Cfg.NumThreads = 1;
  Cfg.Guard = &G;
  PsBehaviorSet B = explorePsna(*P, Cfg);
  EXPECT_TRUE(B.truncated());
  EXPECT_EQ(B.Cause, TruncationCause::MemBudget);
}

TEST(EngineGovernanceTest, SimulationCancelsHonestly) {
  auto P = parse("thread { a := 0; while (a < 3) { a := a + 1; } return a; }");
  guard::CancellationToken Tok;
  Tok.tripAfterPolls(0);
  guard::ResourceGuard G;
  G.setToken(&Tok);
  SimulationResult R = checkSimulation(*P, *P, governedSeq(&G));
  EXPECT_TRUE(R.Holds) << "an incomplete simulation must not reject";
  EXPECT_FALSE(R.Complete);
  EXPECT_EQ(R.Cause, TruncationCause::Cancelled);
}

TEST(EngineGovernanceTest, ValidatorCancelsHonestly) {
  auto P = parse(kSrcStraight);
  for (ValidationMethod M : {ValidationMethod::Simple,
                             ValidationMethod::Advanced,
                             ValidationMethod::Simulation}) {
    guard::CancellationToken Tok;
    Tok.tripAfterPolls(0);
    guard::ResourceGuard G;
    G.setToken(&Tok);
    ValidationResult V = validateTransform(*P, *P, governedSeq(&G), M);
    EXPECT_TRUE(V.Ok) << validationMethodName(M);
    EXPECT_TRUE(V.Bounded) << validationMethodName(M);
    EXPECT_EQ(V.Cause, TruncationCause::Cancelled) << validationMethodName(M);
    EXPECT_NE(V.Counterexample.find("cancelled"), std::string::npos)
        << "bounded verdicts must name their cause: " << V.Counterexample;
  }
}

TEST(EngineGovernanceTest, ValidatorRejectionStaysDefiniteUnderGuard) {
  auto Src = parse(kFailSrc);
  auto Tgt = parse(kFailTgt);
  guard::CancellationToken Tok;
  Tok.tripAfterPolls(100000);
  guard::ResourceGuard G;
  G.setToken(&Tok);
  ValidationResult V = validateTransform(*Src, *Tgt, governedSeq(&G),
                                         ValidationMethod::Advanced);
  EXPECT_FALSE(V.Ok);
  EXPECT_FALSE(V.Counterexample.empty());
}

TEST(EngineGovernanceTest, AdequacyHarnessCancelsHonestly) {
  auto Src = parse("na x; thread { x@na := 1; a := x@na; return a; }");
  auto Tgt = parse("na x; thread { x@na := 1; a := 1; return a; }");
  guard::CancellationToken Tok;
  Tok.tripAfterPolls(0);
  guard::ResourceGuard G;
  G.setToken(&Tok);
  SeqConfig SeqCfg = governedSeq(&G);
  PsConfig PsCfg;
  PsCfg.NumThreads = 1;
  PsCfg.Guard = &G;
  AdequacyRecord Rec =
      runAdequacy("governed", *Src, *Tgt, SeqCfg, PsCfg, /*HasLoops=*/false);
  EXPECT_TRUE(Rec.AnyBounded);
  EXPECT_EQ(Rec.FirstCause, TruncationCause::Cancelled);
  EXPECT_TRUE(Rec.adequacyHolds()) << "skipped work must never read as a "
                                      "Thm 6.2 violation";
}

TEST(EngineGovernanceTest, PipelineReportsBoundedValidation) {
  auto P = parse("na x; thread { x@na := 1; a := x@na; return a; }");
  guard::CancellationToken Tok;
  Tok.tripAfterPolls(0);
  guard::ResourceGuard G;
  G.setToken(&Tok);
  PipelineOptions Opts;
  Opts.NumThreads = 1;
  Opts.Guard = &G;
  PipelineResult R = runPipeline(*P, Opts);
  EXPECT_TRUE(R.AllValidated) << "bounded acceptance is still acceptance";
  bool SawBoundedValidation = false;
  for (const PassReport &Rep : R.Reports)
    if (Rep.Validated && Rep.ValidationBounded) {
      SawBoundedValidation = true;
      EXPECT_EQ(Rep.ValidationCause, TruncationCause::Cancelled) << Rep.Name;
    }
  EXPECT_TRUE(SawBoundedValidation);
}

//===----------------------------------------------------------------------===//
// Shrinker
//===----------------------------------------------------------------------===//

namespace {

// The pipeline's predicate in miniature: a candidate counts as "still
// failing" when both sides parse, layouts and thread counts agree, and the
// validator still rejects.
guard::ShrinkPredicate validatorStillRejects() {
  return [](const std::string &S, const std::string &T) {
    ParseResult PS = parseProgram(S);
    ParseResult PT = parseProgram(T);
    if (!PS.ok() || !PT.ok())
      return false;
    if (!sameLayout(*PS.Prog, *PT.Prog) ||
        PS.Prog->numThreads() != PT.Prog->numThreads())
      return false;
    return !validateTransform(*PS.Prog, *PT.Prog, SeqConfig(),
                              ValidationMethod::Advanced)
                .Ok;
  };
}

} // namespace

TEST(ShrinkTest, ReducesSeededCounterexampleStrictly) {
  // A failing pair padded with removable register arithmetic: the minimal
  // core is the return-value mismatch.
  const std::string Src = "na x;\n"
                          "thread {\n"
                          "  a := 1;\n"
                          "  b := 2;\n"
                          "  c := a + b;\n"
                          "  x@na := 1;\n"
                          "  return 0;\n"
                          "}\n";
  const std::string Tgt = "na x;\n"
                          "thread {\n"
                          "  a := 1;\n"
                          "  b := 2;\n"
                          "  c := a + b;\n"
                          "  x@na := 1;\n"
                          "  return 1;\n"
                          "}\n";
  guard::ShrinkPredicate Pred = validatorStillRejects();
  ASSERT_TRUE(Pred(Src, Tgt)) << "the seed pair must fail to begin with";

  guard::ShrinkResult R = guard::shrinkPair(Src, Tgt, Pred);
  EXPECT_GT(R.LinesRemoved, 0u) << "nothing was shrunk";
  EXPECT_LT(R.Src.size() + R.Tgt.size(), Src.size() + Tgt.size());
  EXPECT_TRUE(Pred(R.Src, R.Tgt)) << "shrunk pair no longer fails:\n"
                                  << R.Src << "---\n"
                                  << R.Tgt;
  EXPECT_TRUE(R.Converged);
  // The padding lines are gone from both sides.
  EXPECT_EQ(R.Src.find("a := 1"), std::string::npos);
  EXPECT_EQ(R.Tgt.find("c := a + b"), std::string::npos);
}

TEST(ShrinkTest, RespectsProbeBudget) {
  const std::string Src = "thread { a := 1; b := 2; return 0; }";
  const std::string Tgt = "thread { a := 1; b := 2; return 1; }";
  guard::ShrinkOptions Opts;
  Opts.MaxProbes = 1;
  guard::ShrinkResult R = guard::shrinkPair(Src, Tgt, validatorStillRejects(), Opts);
  EXPECT_LE(R.Probes, 1u);
  EXPECT_FALSE(R.Converged);
}

TEST(ShrinkTest, TrippedGuardStopsBeforeAnyProbe) {
  guard::CancellationToken Tok;
  Tok.cancel();
  guard::ResourceGuard G;
  G.setToken(&Tok);
  guard::ShrinkOptions Opts;
  Opts.Guard = &G;
  unsigned Calls = 0;
  guard::ShrinkResult R = guard::shrinkPair(
      "line1\nline2\n", "line3\n",
      [&](const std::string &, const std::string &) {
        ++Calls;
        return true;
      },
      Opts);
  EXPECT_EQ(Calls, 0u);
  EXPECT_EQ(R.Probes, 0u);
  EXPECT_EQ(R.Src, "line1\nline2\n");
  EXPECT_FALSE(R.Converged);
}

//===----------------------------------------------------------------------===//
// Fork isolation
//===----------------------------------------------------------------------===//

TEST(IsolateTest, ClassifiesExitCodes) {
  if (!guard::isolationSupported())
    GTEST_SKIP() << "no fork() on this host";
  if (PSEQ_TEST_TSAN)
    GTEST_SKIP() << "fork-based tests are skipped under TSan";

  guard::IsolateResult R = guard::runIsolated([] { return 0; }, {});
  EXPECT_EQ(R.Status, guard::IsolateStatus::Ok);
  EXPECT_EQ(R.ExitCode, 0);

  R = guard::runIsolated([] { return 7; }, {});
  EXPECT_EQ(R.Status, guard::IsolateStatus::Fail);
  EXPECT_EQ(R.ExitCode, 7);

  R = guard::runIsolated([] { return guard::IsolateOomExit; }, {});
  EXPECT_EQ(R.Status, guard::IsolateStatus::Oom);
}

TEST(IsolateTest, ClassifiesCrashSignal) {
  if (!guard::isolationSupported())
    GTEST_SKIP() << "no fork() on this host";
  if (PSEQ_TEST_TSAN)
    GTEST_SKIP() << "fork-based tests are skipped under TSan";

  guard::IsolateResult R = guard::runIsolated(
      []() -> int {
        std::abort();
      },
      {});
  EXPECT_EQ(R.Status, guard::IsolateStatus::Crash);
  EXPECT_EQ(R.Signal, SIGABRT);
}

TEST(IsolateTest, ClassifiesUncaughtException) {
  if (!guard::isolationSupported())
    GTEST_SKIP() << "no fork() on this host";
  if (PSEQ_TEST_TSAN)
    GTEST_SKIP() << "fork-based tests are skipped under TSan";

  guard::IsolateResult R = guard::runIsolated(
      []() -> int { throw std::runtime_error("boom"); }, {});
  EXPECT_EQ(R.Status, guard::IsolateStatus::Crash);
  EXPECT_EQ(R.ExitCode, guard::IsolateExceptionExit);
}

TEST(IsolateTest, WallTimeoutReportsDeadline) {
  if (!guard::isolationSupported())
    GTEST_SKIP() << "no fork() on this host";
  if (PSEQ_TEST_TSAN)
    GTEST_SKIP() << "fork-based tests are skipped under TSan";

  guard::IsolateLimits Limits;
  Limits.WallMs = 200;
  guard::IsolateResult R = guard::runIsolated(
      [] {
        // Bounded stand-in for a hang: far longer than the wall timeout,
        // never infinite even if the limit fails.
        std::this_thread::sleep_for(std::chrono::seconds(20));
        return 0;
      },
      Limits);
  EXPECT_EQ(R.Status, guard::IsolateStatus::Deadline);
  EXPECT_LT(R.ElapsedMs, 10000.0);
}

TEST(IsolateTest, RlimitMemReportsOom) {
  if (!guard::isolationSupported())
    GTEST_SKIP() << "no fork() on this host";
  if (guard::underSanitizer())
    GTEST_SKIP() << "RLIMIT_AS is skipped under sanitizers";

  guard::IsolateLimits Limits;
  Limits.MemBytes = 64ull << 20; // 64 MB address space
  guard::IsolateResult R = guard::runIsolated(
    [] {
        // Allocate-and-touch until bad_alloc; bounded at 1 GB so a broken
        // limit fails the test instead of exhausting the host.
        std::vector<std::unique_ptr<char[]>> Chunks;
        for (int I = 0; I != 64; ++I) {
          Chunks.push_back(std::make_unique<char[]>(16u << 20));
          Chunks.back()[0] = 1;
        }
        return 0;
      },
      Limits);
  EXPECT_EQ(R.Status, guard::IsolateStatus::Oom);
  EXPECT_EQ(R.ExitCode, guard::IsolateOomExit);
}

//===----------------------------------------------------------------------===//
// Fuzz campaign
//===----------------------------------------------------------------------===//

TEST(FuzzCampaignTest, InlineCampaignRunsClean) {
  // No isolation: exercises the in-process path (the only one available
  // under TSan or on non-POSIX hosts).
  CampaignOptions O;
  O.Seed = 7;
  O.Count = 4;
  O.Isolate = false;
  O.DeadlineMs = 0;
  CampaignStats S = runFuzzCampaign(O);
  EXPECT_EQ(S.Pairs, 4u);
  EXPECT_EQ(S.Isolated, 0u);
  EXPECT_EQ(S.Agree + S.Mismatch + S.Bounded + S.Crash, 4u);
  EXPECT_TRUE(S.clean());
}

TEST(FuzzCampaignTest, SurvivesInjectedCrash) {
  if (!guard::isolationSupported())
    GTEST_SKIP() << "no fork() on this host";
  if (PSEQ_TEST_TSAN)
    GTEST_SKIP() << "fork-based tests are skipped under TSan";

  CampaignOptions O;
  O.Seed = 7;
  O.Count = 3;
  O.Fault = FaultKind::Crash;
  O.InjectAt = 1;
  O.WallMs = 20000;
  CampaignStats S = runFuzzCampaign(O);
  EXPECT_EQ(S.Pairs, 3u);
  EXPECT_EQ(S.Crash, 1u) << "the injected crash must land in its bucket";
  EXPECT_EQ(S.Agree, 2u) << "the other pairs must be unaffected";
  EXPECT_EQ(S.Isolated, 3u);
  EXPECT_FALSE(S.clean());
}

TEST(FuzzCampaignTest, SurvivesInjectedHang) {
  if (!guard::isolationSupported())
    GTEST_SKIP() << "no fork() on this host";
  if (PSEQ_TEST_TSAN)
    GTEST_SKIP() << "fork-based tests are skipped under TSan";

  CampaignOptions O;
  O.Seed = 7;
  O.Count = 3;
  O.Fault = FaultKind::Hang;
  O.InjectAt = 0;
  O.WallMs = 1000;
  CampaignStats S = runFuzzCampaign(O);
  EXPECT_EQ(S.Pairs, 3u);
  EXPECT_EQ(S.Deadline, 1u) << "the hang must be reaped as a deadline";
  EXPECT_EQ(S.Agree, 2u);
  EXPECT_TRUE(S.clean()) << "a deadline is a classified outcome, not a bug";
}

TEST(FuzzCampaignTest, SurvivesInjectedOom) {
  if (!guard::isolationSupported())
    GTEST_SKIP() << "no fork() on this host";
  if (guard::underSanitizer())
    GTEST_SKIP() << "RLIMIT_AS is skipped under sanitizers";

  CampaignOptions O;
  O.Seed = 7;
  O.Count = 2;
  O.Fault = FaultKind::Oom;
  O.InjectAt = 1;
  O.WallMs = 20000;
  CampaignStats S = runFuzzCampaign(O);
  EXPECT_EQ(S.Pairs, 2u);
  EXPECT_EQ(S.Oom, 1u);
  EXPECT_EQ(S.Agree, 1u);
  EXPECT_TRUE(S.clean());
}

TEST(FuzzCampaignTest, GovernedPairsReportBoundedNotCrash) {
  // An aggressive in-child deadline turns pairs into bounded verdicts —
  // never crashes, never campaign failures.
  CampaignOptions O;
  O.Seed = 7;
  O.Count = 3;
  O.Isolate = false;
  O.DeadlineMs = 1; // most pairs will trip; fast ones may still agree
  CampaignStats S = runFuzzCampaign(O);
  EXPECT_EQ(S.Pairs, 3u);
  EXPECT_EQ(S.Agree + S.Bounded, 3u)
      << "a governed pair either finishes or reports bounded";
  EXPECT_TRUE(S.clean());
}

TEST(FuzzCampaignTest, RealWorldSeedCorpusRunsClean) {
  // Corpus-seeded pairs are multi-threaded spin-loop protocols: every SEQ
  // verdict is loop-bounded, so each pair must classify as agree/bounded —
  // a PS^na refutation of a truncated SEQ positive is a non-verdict, not
  // a finding.
  EXPECT_TRUE(campaignSeedCorpusKnown("realworld"));
  EXPECT_TRUE(campaignSeedCorpusKnown("random"));
  EXPECT_FALSE(campaignSeedCorpusKnown("realwrld"));

  CampaignOptions O;
  O.Seed = 11;
  O.Count = 3;
  O.Isolate = false;
  O.SeedCorpus = "realworld";
  CampaignStats S = runFuzzCampaign(O);
  EXPECT_EQ(S.Pairs, 3u);
  EXPECT_EQ(S.Agree + S.Bounded, 3u)
      << "seeded pairs either agree or report an honest bounded verdict";
  EXPECT_TRUE(S.clean());
}

//===----------------------------------------------------------------------===//
// Isolation rusage capture & SIGKILL disambiguation
//===----------------------------------------------------------------------===//

TEST(IsolateTest, CapturesChildOutputAndRusage) {
  if (!guard::isolationSupported())
    GTEST_SKIP() << "no fork() on this host";
  if (PSEQ_TEST_TSAN)
    GTEST_SKIP() << "fork-based tests are skipped under TSan";

  std::string Output;
  guard::IsolateResult R = guard::runIsolatedCapture(
      [](int OutFd) -> int {
        const char Msg[] = "payload from the child";
        size_t Len = sizeof(Msg) - 1;
        size_t Off = 0;
        while (Off < Len) {
          ssize_t N = write(OutFd, Msg + Off, Len - Off);
          if (N <= 0)
            return 1;
          Off += static_cast<size_t>(N);
        }
        // Touch some memory so the peak-RSS sample is visibly nonzero.
        std::vector<char> Block(4u << 20, 1);
        return Block[12345] == 1 ? 0 : 1;
      },
      {}, Output);
  EXPECT_EQ(R.Status, guard::IsolateStatus::Ok);
  EXPECT_EQ(Output, "payload from the child");
  EXPECT_GT(R.PeakRssKb, 0u) << "wait4 rusage not recorded";
  EXPECT_GE(R.UserMs, 0.0);
  EXPECT_GE(R.SysMs, 0.0);
}

TEST(IsolateTest, CaptureSurvivesChildDeathMidWrite) {
  if (!guard::isolationSupported())
    GTEST_SKIP() << "no fork() on this host";
  if (PSEQ_TEST_TSAN)
    GTEST_SKIP() << "fork-based tests are skipped under TSan";

  std::string Output;
  guard::IsolateResult R = guard::runIsolatedCapture(
      [](int OutFd) -> int {
        (void)write(OutFd, "partial", 7);
        std::abort();
      },
      {}, Output);
  EXPECT_EQ(R.Status, guard::IsolateStatus::Crash);
  EXPECT_EQ(R.Signal, SIGABRT);
  EXPECT_EQ(Output, "partial") << "pre-crash bytes must still be drained";
}

TEST(IsolateTest, ExternalSigkillIsACrashNotADeadline) {
  if (!guard::isolationSupported())
    GTEST_SKIP() << "no fork() on this host";
  if (PSEQ_TEST_TSAN)
    GTEST_SKIP() << "fork-based tests are skipped under TSan";

  // A SIGKILL with almost no CPU consumed cannot be the hard CPU rlimit
  // (chaos injection and the OOM killer die exactly like this); rusage
  // disambiguates it into Crash so the job layer retries.
  guard::IsolateLimits Limits;
  Limits.CpuSeconds = 30;
  guard::IsolateResult R = guard::runIsolated(
      []() -> int {
        raise(SIGKILL);
        return 0;
      },
      Limits);
  EXPECT_EQ(R.Status, guard::IsolateStatus::Crash);
  EXPECT_EQ(R.Signal, SIGKILL);
}

//===----------------------------------------------------------------------===//
// Graceful shutdown signals
//===----------------------------------------------------------------------===//

TEST(SignalsTest, SignalSetsFlagAndCancelsToken) {
  ASSERT_TRUE(guard::installShutdownHandlers());
  EXPECT_FALSE(guard::shutdownRequested());
  EXPECT_FALSE(guard::shutdownToken().cancelled());

  raise(SIGINT);
  EXPECT_TRUE(guard::shutdownRequested());
  EXPECT_EQ(guard::shutdownSignal(), SIGINT);
  EXPECT_TRUE(guard::shutdownToken().cancelled())
      << "a guard attached to the shared token must see the cancel";

  guard::resetShutdownStateForTests();
  EXPECT_FALSE(guard::shutdownRequested());
  EXPECT_EQ(guard::shutdownSignal(), 0);
  EXPECT_FALSE(guard::shutdownToken().cancelled());
}

TEST(SignalsTest, GuardAttachedToTokenReportsCancelled) {
  ASSERT_TRUE(guard::installShutdownHandlers());
  guard::ResourceGuard Guard;
  Guard.setToken(&guard::shutdownToken());
  EXPECT_EQ(Guard.checkpoint(), TruncationCause::None);

  raise(SIGTERM);
  EXPECT_EQ(Guard.checkpoint(), TruncationCause::Cancelled)
      << "SIGTERM must surface as an honest cancelled truncation";

  guard::resetShutdownStateForTests();
}

TEST(SignalsTest, CampaignStopsBetweenPairsOnShutdownSignal) {
  ASSERT_TRUE(guard::installShutdownHandlers());
  raise(SIGTERM);

  CampaignOptions O;
  O.Seed = 7;
  O.Count = 50;
  O.Isolate = false;
  CampaignStats S = runFuzzCampaign(O);
  EXPECT_TRUE(S.Interrupted);
  EXPECT_EQ(S.Pairs, 0u) << "the flag was set before the first pair";
  EXPECT_TRUE(S.clean());

  guard::resetShutdownStateForTests();
}

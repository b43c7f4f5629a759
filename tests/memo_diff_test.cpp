//===- tests/memo_diff_test.cpp - Memoization differential tests ----------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// The memoization layer (src/memo) is pure acceleration: sleep-set
// pruning and the cross-run behavior cache in the PS^na explorer. This
// suite pins that down differentially — for the whole litmus corpus the
// behavior sets with memoization ON must be byte-identical to the sets
// with it OFF, and identical across 1/2/8 worker threads; truncation
// causes must agree under deterministic tripAfterPolls guards in both the
// tripping and non-tripping regime; and repeat runs through a shared
// context must actually hit the caches. The SEQ enumerator, which has no
// memo, is swept over seeded random programs at 1/2/8 workers.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "adequacy/RandomProgram.h"
#include "guard/Guard.h"
#include "litmus/Corpus.h"
#include "memo/MemoContext.h"
#include "memo/VisitedSet.h"
#include "psna/Explorer.h"
#include "seq/BehaviorEnum.h"
#include "seq/SimpleRefinement.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace pseq;

namespace {

// --- Rendering helpers: a behavior set as one comparable string ----------

std::string render(const PsBehaviorSet &B) {
  std::string Out = std::string("cause=") + truncationCauseName(B.Cause);
  for (const std::string &S : B.strs())
    Out += "\n" + S;
  return Out;
}

std::string render(const BehaviorSet &B) {
  // BehaviorSet::All is canonically sorted by the enumerator, so the
  // rendering is order-stable by construction.
  std::string Out = std::string("cause=") + truncationCauseName(B.Cause);
  for (const SeqBehavior &SB : B.All)
    Out += "\n" + SB.str();
  return Out;
}

PsConfig litmusConfig(const LitmusCase &LC) {
  PsConfig Cfg;
  Cfg.Domain = LC.Domain;
  Cfg.PromiseBudget = LC.PromiseBudget;
  Cfg.SplitBudget = LC.SplitBudget;
  Cfg.NumThreads = 1;
  return Cfg;
}

/// Enumerates the full Def 2.4 sweep of single-thread program \p P:
/// behaviors of every initial state, rendered into one string.
std::string seqSweep(const Program &P, SeqConfig Cfg) {
  Cfg = resolveUniverse(Cfg, P, 0, P, 0);
  SeqMachine M(P, 0, Cfg);
  std::vector<SeqState> Inits = enumerateInitialStates(M);
  std::vector<BehaviorSet> Sets = enumerateBehaviorsBatch(M, Inits);
  std::string Out;
  for (const BehaviorSet &B : Sets)
    Out += render(B) + "\n--\n";
  return Out;
}

// --- PS^na explorer: litmus corpus ---------------------------------------

TEST(MemoDiff, PsnaLitmusMemoOnEqualsOff) {
  for (const LitmusCase &LC : litmusCorpus()) {
    std::unique_ptr<Program> P = prog(LC.Text);
    PsConfig Off = litmusConfig(LC);
    PsBehaviorSet BOff = explorePsna(*P, Off);

    memo::MemoContext MC;
    PsConfig On = litmusConfig(LC);
    On.Memo = &MC;
    PsBehaviorSet BOn = explorePsna(*P, On);

    EXPECT_EQ(render(BOff), render(BOn)) << "case " << LC.Name;
  }
}

TEST(MemoDiff, PsnaLitmusThreadSweepIdentical) {
  for (const LitmusCase &LC : litmusCorpus()) {
    std::unique_ptr<Program> P = prog(LC.Text);
    for (bool UseMemo : {false, true}) {
      std::string Baseline;
      unsigned BaselineStates = 0;
      for (unsigned N : {1u, 2u, 8u}) {
        // A fresh context per worker count: the cross-run cache would
        // otherwise answer for the later counts and the comparison would
        // only exercise the cache, not the parallel explorer.
        memo::MemoContext MC;
        PsConfig Cfg = litmusConfig(LC);
        Cfg.NumThreads = N;
        Cfg.Memo = UseMemo ? &MC : nullptr;
        PsBehaviorSet B = explorePsna(*P, Cfg);
        if (N == 1) {
          Baseline = render(B);
          BaselineStates = B.StatesExplored;
        } else {
          EXPECT_EQ(Baseline, render(B))
              << "case " << LC.Name << " threads=" << N
              << " memo=" << UseMemo;
          EXPECT_EQ(BaselineStates, B.StatesExplored)
              << "case " << LC.Name << " threads=" << N
              << " memo=" << UseMemo;
        }
      }
    }
  }
}

TEST(MemoDiff, PsnaCrossRunCacheHitsAndAgrees) {
  memo::MemoContext MC;
  std::vector<std::string> FirstPass;
  for (const LitmusCase &LC : litmusCorpus()) {
    std::unique_ptr<Program> P = prog(LC.Text);
    PsConfig Cfg = litmusConfig(LC);
    Cfg.Memo = &MC;
    FirstPass.push_back(render(explorePsna(*P, Cfg)));
  }
  uint64_t MissesAfterFirst = MC.misses();
  EXPECT_EQ(MissesAfterFirst, litmusCorpus().size());
  EXPECT_EQ(MC.hits(), 0u);

  size_t I = 0;
  for (const LitmusCase &LC : litmusCorpus()) {
    std::unique_ptr<Program> P = prog(LC.Text);
    PsConfig Cfg = litmusConfig(LC);
    Cfg.Memo = &MC;
    EXPECT_EQ(FirstPass[I++], render(explorePsna(*P, Cfg)))
        << "case " << LC.Name;
  }
  // Every second-pass exploration answered from the cache: repeat sweeps
  // cost zero exploration (the >=2x states-explored reduction the perf
  // gate checks end to end).
  EXPECT_EQ(MC.hits(), litmusCorpus().size());
  EXPECT_EQ(MC.misses(), MissesAfterFirst);
}

// --- PS^na explorer: guard interaction -----------------------------------

TEST(MemoDiff, PsnaTripCauseAgreesAndIsNotCached) {
  const LitmusCase &LC = litmusCaseByName("lb-rlx");
  std::unique_ptr<Program> P = prog(LC.Text);

  // Tripping regime: the same deterministic poll budget must produce the
  // same truncation cause with memoization on and off.
  for (uint64_t Polls : {0ull, 3ull}) {
    guard::CancellationToken TokOff, TokOn;
    guard::ResourceGuard GOff, GOn;
    TokOff.tripAfterPolls(Polls);
    TokOn.tripAfterPolls(Polls);
    GOff.setToken(&TokOff);
    GOn.setToken(&TokOn);

    PsConfig Off = litmusConfig(LC);
    Off.Guard = &GOff;
    PsBehaviorSet BOff = explorePsna(*P, Off);

    memo::MemoContext MC;
    PsConfig On = litmusConfig(LC);
    On.Guard = &GOn;
    On.Memo = &MC;
    PsBehaviorSet BOn = explorePsna(*P, On);

    EXPECT_EQ(BOff.Cause, BOn.Cause) << "polls=" << Polls;
    EXPECT_EQ(TruncationCause::Cancelled, BOn.Cause) << "polls=" << Polls;

    // A guard-truncated result must never answer for a later run: the
    // ungoverned re-run through the same context recomputes the full set.
    PsConfig Clean = litmusConfig(LC);
    Clean.Memo = &MC;
    PsBehaviorSet BFull = explorePsna(*P, Clean);
    EXPECT_EQ(TruncationCause::None, BFull.Cause);
    PsConfig Bare = litmusConfig(LC);
    EXPECT_EQ(render(explorePsna(*P, Bare)), render(BFull));
  }

  // Non-tripping regime: a generous poll budget never fires and the sets
  // match the ungoverned run exactly.
  guard::CancellationToken Tok;
  guard::ResourceGuard G;
  Tok.tripAfterPolls(1 << 20);
  G.setToken(&Tok);
  memo::MemoContext MC;
  PsConfig Cfg = litmusConfig(LC);
  Cfg.Guard = &G;
  Cfg.Memo = &MC;
  PsBehaviorSet B = explorePsna(*P, Cfg);
  EXPECT_EQ(TruncationCause::None, B.Cause);
  PsConfig Bare = litmusConfig(LC);
  EXPECT_EQ(render(explorePsna(*P, Bare)), render(B));
}

// --- SEQ enumerator: random programs -------------------------------------
//
// The SEQ enumerator has no memo; its batch fan-out must give the same
// sets at every worker count.

TEST(MemoDiff, SeqRandomProgramsThreadSweepIdentical) {
  Rng R(987654321);
  for (unsigned I = 0; I != 50; ++I) {
    RandomPair Pair = randomRefinementPair(R);
    std::unique_ptr<Program> P = prog(Pair.Src);
    std::string Baseline;
    for (unsigned N : {1u, 2u, 8u}) {
      SeqConfig Cfg;
      Cfg.NumThreads = N;
      std::string S = seqSweep(*P, Cfg);
      if (N == 1)
        Baseline = S;
      else
        EXPECT_EQ(Baseline, S) << "program " << I << " threads=" << N << ":\n"
                               << Pair.Src;
    }
  }
}

} // namespace

// --- ConfigSalt: distinct configurations never exchange cache entries ----

// The pipeline derives a salt from its active pass configuration and sets
// it into every engine config it hands the validators (Pipeline.cpp's
// passConfigSalt). The explorer-side contract that makes this work: two
// explorations that differ ONLY in ConfigSalt must not answer each other
// from a shared context. Before the salt was mixed into the cache keys,
// the second run below hit the first run's entry.
TEST(MemoDiff, PsnaConfigSaltPartitionsTheCache) {
  const LitmusCase &LC = litmusCaseByName("lb-rlx");
  std::unique_ptr<Program> P = prog(LC.Text);
  memo::MemoContext MC;

  PsConfig Cfg = litmusConfig(LC);
  Cfg.Memo = &MC;
  Cfg.ConfigSalt = 0;
  std::string Unsalted = render(explorePsna(*P, Cfg));
  EXPECT_EQ(MC.hits(), 0u);
  uint64_t Misses = MC.misses();
  EXPECT_GE(Misses, 1u);

  // Same program, same budgets, different salt: a fresh miss, never a hit.
  Cfg.ConfigSalt = 1;
  std::string Salted = render(explorePsna(*P, Cfg));
  EXPECT_EQ(MC.hits(), 0u) << "salted run answered from the unsalted entry";
  EXPECT_GT(MC.misses(), Misses);
  // The verdict itself is salt-independent, of course.
  EXPECT_EQ(Unsalted, Salted);

  // Repeating either salt now hits its own partition.
  explorePsna(*P, Cfg);
  EXPECT_GE(MC.hits(), 1u);
}

// --- The pruned explorer's visited table --------------------------------

// memo::VisitedSet directly: a new key stores its mask, a merge intersects
// and reports a strict shrink, growth rehashes every entry, and the
// reserved all-zero fingerprint is stored as its sealed stand-in.
TEST(VisitedSetTest, InsertMergeGrowAndSeal) {
  memo::VisitedSet V;
  memo::Fp128 A{0x1234, 0x5678};

  memo::VisitedSet::Outcome O = V.insertOrMerge(A, 0b1011);
  EXPECT_TRUE(O.Inserted);
  EXPECT_FALSE(O.Shrunk);
  EXPECT_EQ(O.Mask, 0b1011u);
  EXPECT_EQ(V.size(), 1u);

  O = V.insertOrMerge(A, 0b0011); // drops bit 3: shrinks
  EXPECT_FALSE(O.Inserted);
  EXPECT_TRUE(O.Shrunk);
  EXPECT_EQ(O.Mask, 0b0011u);

  O = V.insertOrMerge(A, 0b1111); // a superset: the stored mask stays
  EXPECT_FALSE(O.Inserted);
  EXPECT_FALSE(O.Shrunk);
  EXPECT_EQ(O.Mask, 0b0011u);
  EXPECT_EQ(V.size(), 1u);

  // Far more keys than the 16 slots the table starts with; keys that
  // share a Hi lane probe the same run of slots, and only both lanes
  // together identify a key.
  const uint32_t N = 1000;
  for (uint32_t I = 1; I <= N; ++I)
    EXPECT_TRUE(V.insertOrMerge(memo::Fp128{100 + I, I % 7}, I).Inserted);
  EXPECT_EQ(V.size(), N + 1);
  for (uint32_t I = 1; I <= N; ++I) {
    O = V.insertOrMerge(memo::Fp128{100 + I, I % 7}, ~0u);
    EXPECT_FALSE(O.Inserted) << I;
    EXPECT_EQ(O.Mask, I) << I;
  }
  EXPECT_EQ(V.insertOrMerge(A, ~0u).Mask, 0b0011u);

  // The zero fingerprint is sealed to {1, 1} on the way in.
  O = V.insertOrMerge(memo::Fp128{0, 0}, 0b110);
  EXPECT_TRUE(O.Inserted);
  O = V.insertOrMerge(memo::Fp128{1, 1}, 0b010);
  EXPECT_FALSE(O.Inserted);
  EXPECT_TRUE(O.Shrunk);
  EXPECT_EQ(O.Mask, 0b010u);
  EXPECT_EQ(V.size(), N + 2);
}

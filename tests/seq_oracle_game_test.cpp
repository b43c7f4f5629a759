//===- tests/seq_oracle_game_test.cpp - Def 3.2/3.3 game unit tests -------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Direct unit tests of the ∀-oracle adversary game shared by the advanced
// refinement matcher and the Fig. 6 simulation: goal semantics, acquire
// blocking, the AND-over-adversary branching discipline, and the sharing
// contract: one game re-armed across queries never serves an entry that a
// budget cut short.
//
//===----------------------------------------------------------------------===//

#include "seq/OracleGame.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace pseq;

namespace {

struct GameFixture {
  std::unique_ptr<Program> P;
  SeqConfig Cfg;
  std::unique_ptr<SeqMachine> M;

  explicit GameFixture(const std::string &Text,
                       ValueDomain D = ValueDomain::binary()) {
    P = prog(Text);
    Cfg.Domain = std::move(D);
    Cfg.Universe = P->naLocs();
    M = std::make_unique<SeqMachine>(*P, 0, Cfg);
  }

  SeqState state(LocSet Perm, LocSet F = LocSet::empty()) {
    return M->initial(Perm, F,
                      std::vector<Value>(P->numLocs(), Value::of(0)));
  }

  /// One query against a fresh graph and game.
  bool robustBottom(const SeqState &S) {
    SourceGraph G(*M);
    return OracleGame(G, 1 << 20).robustBottom(G.intern(S));
  }
  bool robustFulfill(const SeqState &S, LocSet Need) {
    SourceGraph G(*M);
    return OracleGame(G, 1 << 20).robustFulfill(G.intern(S), Need);
  }
};

} // namespace

TEST(OracleGameTest, BottomGoalReachedByUnconditionalAbort) {
  GameFixture F("thread { abort; }");
  EXPECT_TRUE(F.robustBottom(F.state(LocSet::empty())));
}

TEST(OracleGameTest, BottomGoalFailsOnTermination) {
  GameFixture F("thread { return 0; }");
  EXPECT_FALSE(F.robustBottom(F.state(LocSet::empty())));
}

TEST(OracleGameTest, BottomGoalViaRacyWrite) {
  GameFixture F("na x;\nthread { x@na := 1; return 0; }");
  // Without permission the write is UB on every path.
  EXPECT_TRUE(F.robustBottom(F.state(LocSet::empty())));
  // With permission it terminates instead.
  EXPECT_FALSE(F.robustBottom(F.state(F.P->naLocs())));
}

TEST(OracleGameTest, AdversaryControlsRelaxedReadValues) {
  // UB only when reading 1: the adversary answers 0 and the game fails.
  GameFixture F("atomic z;\nthread { a := z@rlx; "
                "if (a == 1) { abort; } return 0; }");
  EXPECT_FALSE(F.robustBottom(F.state(LocSet::empty())));

  // UB on every read value: robust.
  GameFixture G("atomic z;\nthread { a := z@rlx; abort; }");
  EXPECT_TRUE(G.robustBottom(G.state(LocSet::empty())));
}

TEST(OracleGameTest, AdversaryControlsChooseValues) {
  GameFixture F("thread { c := choose; if (c == 1) { abort; } return 0; }");
  EXPECT_FALSE(F.robustBottom(F.state(LocSet::empty())));
}

TEST(OracleGameTest, AcquireBlocksTheSuffix) {
  GameFixture F("atomic z;\nthread { a := z@acq; abort; }");
  EXPECT_FALSE(F.robustBottom(F.state(LocSet::empty())))
      << "no acquire read may appear in an unmatched source suffix";

  GameFixture G("thread { fence @ acq; abort; }");
  EXPECT_FALSE(G.robustBottom(G.state(LocSet::empty())));
}

TEST(OracleGameTest, ReleaseIsAllowedInTheSuffix) {
  GameFixture F("atomic z;\nthread { z@rel := 1; abort; }");
  EXPECT_TRUE(F.robustBottom(F.state(LocSet::empty())));
}

TEST(OracleGameTest, FulfillGoalByWriting) {
  GameFixture F("na x;\nthread { x@na := 1; return 0; }");
  unsigned X = *F.P->lookupLoc("x");
  // With permission: the write puts x into F — goal met on every path.
  EXPECT_TRUE(
      F.robustFulfill(F.state(F.P->naLocs()), LocSet::single(X)));
  // Without permission the write is UB — which also discharges the goal
  // (beh-failure subsumes beh-partial).
  EXPECT_TRUE(
      F.robustFulfill(F.state(LocSet::empty()), LocSet::single(X)));
}

TEST(OracleGameTest, FulfillGoalFailsWithoutAWrite) {
  GameFixture F("na x;\nthread { return 0; }");
  unsigned X = *F.P->lookupLoc("x");
  EXPECT_FALSE(
      F.robustFulfill(F.state(F.P->naLocs()), LocSet::single(X)));
  // The empty goal is immediately met.
  EXPECT_TRUE(F.robustFulfill(F.state(F.P->naLocs()), LocSet()));
}

TEST(OracleGameTest, ReleaseLabelsCollectFulfilledWrites) {
  // The write lands in a release label's F (then F resets); the collected
  // set still counts toward the goal (beh-partial's ⋃ of release F's).
  GameFixture F("na x; atomic z;\n"
                "thread { x@na := 1; z@rel := 1; return 0; }");
  unsigned X = *F.P->lookupLoc("x");
  EXPECT_TRUE(
      F.robustFulfill(F.state(F.P->naLocs()), LocSet::single(X)));
}

TEST(OracleGameTest, FulfillBeyondAnAcquireFails) {
  // The only write to x sits after an acquire read: commitments may not
  // be fulfilled across acquires.
  GameFixture F("na x; atomic z;\n"
                "thread { a := z@acq; x@na := 1; return 0; }");
  unsigned X = *F.P->lookupLoc("x");
  EXPECT_FALSE(
      F.robustFulfill(F.state(F.P->naLocs()), LocSet::single(X)));
}

TEST(OracleGameTest, SilentDivergenceNeverReachesAGoal) {
  GameFixture F("na x;\nthread { a := 1; while (a == 1) { skip; } "
                "x@na := 1; return 0; }");
  unsigned X = *F.P->lookupLoc("x");
  EXPECT_FALSE(
      F.robustFulfill(F.state(F.P->naLocs()), LocSet::single(X)))
      << "the cycle-cut memoization must terminate and answer false";
  EXPECT_FALSE(F.robustBottom(F.state(F.P->naLocs())));
}

TEST(OracleGameTest, RearmedGameNeverServesATruncatedEntry) {
  // ⊥ is six steps away on every path: the query needs seven nodes.
  GameFixture F("thread { a := 1; b := 2; c := 3; d := 4; e := 5; abort; }");
  SourceGraph G(*F.M);
  unsigned Init = G.intern(F.state(LocSet::empty()));
  OracleGame Game(G, /*NodeBudget=*/3);
  EXPECT_FALSE(Game.robustBottom(Init));
  EXPECT_TRUE(Game.budgetHit());

  // Re-armed with a full budget, the same game must give the complete
  // answer: the false above was the budget's, and none of the entries on
  // its path may have been kept.
  Game.rearm(1 << 20);
  EXPECT_FALSE(Game.budgetHit());
  EXPECT_TRUE(Game.robustBottom(Init));
  EXPECT_FALSE(Game.budgetHit());
  EXPECT_EQ(Game.nodes(), 3u + 7u) << "the complete query expands all seven";

  // An exact verdict is kept and served: the repeat costs no node, even
  // with nothing left to spend.
  Game.rearm(0);
  EXPECT_TRUE(Game.robustBottom(Init));
  EXPECT_FALSE(Game.budgetHit());
  EXPECT_EQ(Game.nodes(), 10u);
  EXPECT_EQ(Game.memoHits(), 1u);
}

TEST(OracleGameTest, ExactFalseVerdictsAreShared) {
  // Cycle-cut falses are exact (no adversary path out of the loop reaches
  // the goal), so a later query with no budget still gets them.
  GameFixture F("na x;\nthread { a := 1; while (a == 1) { skip; } "
                "x@na := 1; return 0; }");
  SourceGraph G(*F.M);
  unsigned Init = G.intern(F.state(F.P->naLocs()));
  OracleGame Game(G, 1 << 20);
  EXPECT_FALSE(Game.robustBottom(Init));
  EXPECT_FALSE(Game.budgetHit());
  Game.rearm(0);
  EXPECT_FALSE(Game.robustBottom(Init));
  EXPECT_FALSE(Game.budgetHit()) << "served from the memo, not cut short";
}

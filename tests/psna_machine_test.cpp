//===- tests/psna_machine_test.cpp - Fig 5 transition rules ---------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Unit tests of the PS^na machine: views, message placement, race
// detection, promises/certification, lowering, and normalization.
//
//===----------------------------------------------------------------------===//

#include "litmus/Corpus.h"
#include "psna/Explorer.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <unordered_set>

using namespace pseq;

namespace {

PsConfig cfg(unsigned Promises = 0, unsigned Splits = 0) {
  PsConfig C;
  C.Domain = ValueDomain::binary();
  C.PromiseBudget = Promises;
  C.SplitBudget = Splits;
  return C;
}

} // namespace

//===----------------------------------------------------------------------===
// Memory primitives
//===----------------------------------------------------------------------===

TEST(PsMemoryTest, InitialMemoryHasInitMessages) {
  PsMemory M = PsMemory::initial(2);
  ASSERT_EQ(M.msgs(0).size(), 1u);
  EXPECT_TRUE(M.msgs(0)[0].isInit());
  EXPECT_EQ(M.msgs(0)[0].V, Value::of(0));
}

TEST(PsMemoryTest, SlotsAboveLeaveRoom) {
  PsMemory M = PsMemory::initial(1);
  SlotVec S1 = M.slotsAbove(0, Rational(0));
  ASSERT_EQ(S1.size(), 1u) << "only the past-the-end slot initially";
  PsMessage A;
  A.Loc = 0;
  A.From = S1[0].From;
  A.To = S1[0].To;
  A.V = Value::of(1);
  M.insert(A);

  // Now: a gap slot between init and A, plus past-the-end.
  SlotVec S2 = M.slotsAbove(0, Rational(0));
  ASSERT_EQ(S2.size(), 2u);
  EXPECT_LT(Rational(0), S2[0].From);
  EXPECT_LT(S2[0].To, A.From);
  EXPECT_LT(A.To, S2[1].From);
}

TEST(PsMemoryTest, AdjacentSlotAttachesAndBlocks) {
  PsMemory M = PsMemory::initial(1);
  std::optional<TimeSlot> Adj = M.adjacentSlot(0, Rational(0));
  ASSERT_TRUE(Adj.has_value());
  EXPECT_EQ(Adj->From, Rational(0)) << "RMW attaches to the read message";

  PsMessage A;
  A.Loc = 0;
  A.From = Adj->From;
  A.To = Adj->To;
  A.V = Value::of(1);
  M.insert(A);
  EXPECT_FALSE(M.adjacentSlot(0, Rational(0)).has_value())
      << "no second update can read the same message";
  EXPECT_TRUE(M.adjacentSlot(0, A.To).has_value());
}

//===----------------------------------------------------------------------===
// Machine behaviors on single-threaded programs
//===----------------------------------------------------------------------===

TEST(PsViewTest, InlineAndHeapViewsCopyMoveAndAssign) {
  // Views up to four locations wide keep their timestamps inline, wider
  // ones on the heap; copies must never share storage, whichever way they
  // are made.
  for (unsigned Locs : {1u, 4u, 5u, 9u}) {
    View V = View::zero(Locs);
    for (unsigned L = 0; L != Locs; ++L)
      V.set(L, Rational(L + 1));
    View C = V;
    EXPECT_TRUE(C == V && C.hash() == V.hash()) << Locs;
    C.set(0, Rational(7));
    EXPECT_TRUE(V.get(0) == Rational(1)) << Locs;
    View M = std::move(C);
    EXPECT_EQ(M.numLocs(), Locs);
    EXPECT_TRUE(M.get(0) == Rational(7)) << Locs;
    for (unsigned Other : {2u, Locs, 9u}) {
      View A = View::zero(Other);
      A = V;
      EXPECT_TRUE(A == V) << Locs << " <- " << Other;
      A.set(Locs - 1, Rational(50));
      EXPECT_TRUE(V.get(Locs - 1) == Rational(Locs)) << Locs;
      A = View::zero(Other);
      EXPECT_EQ(A.numLocs(), Other);
      EXPECT_TRUE(A == View::zero(Other)) << Other;
    }
    View J = V.joined(View::single(Locs, Locs - 1, Rational(100)));
    EXPECT_TRUE(J.get(Locs - 1) == Rational(100) && V.leq(J) && !J.leq(V))
        << Locs;
  }
}

TEST(PsMachineTest, SequentialExecutionIsDeterministic) {
  auto P = prog("na x;\nthread { x@na := 1; a := x@na; return a; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  ASSERT_EQ(B.All.size(), 1u);
  EXPECT_EQ(B.All[0].str(), "ret(1)");
  EXPECT_FALSE(B.truncated());
}

TEST(PsMachineTest, SingleThreadReadsLatestOrInit) {
  auto P = prog("atomic x;\nthread { x@rlx := 1; a := x@rlx; return a; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  // Coherence: after writing 1, the thread's view points at its write.
  ASSERT_EQ(B.All.size(), 1u);
  EXPECT_EQ(B.All[0].str(), "ret(1)");
}

TEST(PsMachineTest, AbortIsUB) {
  auto P = prog("thread { abort; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  ASSERT_EQ(B.All.size(), 1u);
  EXPECT_TRUE(B.All[0].IsUB);
}

TEST(PsMachineTest, ChooseEnumeratesDomain) {
  auto P = prog("thread { c := choose; return c; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  EXPECT_TRUE(B.containsStr("ret(0)"));
  EXPECT_TRUE(B.containsStr("ret(1)"));
  EXPECT_EQ(B.All.size(), 2u);
}

TEST(PsMachineTest, PrintsAreObservableInOrder) {
  auto P = prog("thread { print(1); print(0); return 0; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  ASSERT_EQ(B.All.size(), 1u);
  EXPECT_EQ(B.All[0].str(), "out(1,0) ret(0)");
}

//===----------------------------------------------------------------------===
// Races
//===----------------------------------------------------------------------===

TEST(PsMachineTest, NoRaceOnSequentialThread) {
  auto P = prog("na x;\nthread { a := x@na; return a; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  ASSERT_EQ(B.All.size(), 1u);
  EXPECT_EQ(B.All[0].str(), "ret(0)") << "no race without a second thread";
}

TEST(PsMachineTest, ConcurrentNaWriteMakesReadsRacy) {
  auto P = prog("na x;\n"
                "thread { x@na := 1; return 0; }\n"
                "thread { a := x@na; return a; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  EXPECT_TRUE(B.containsStr("ret(0,undef)")) << "racy read returns undef";
  EXPECT_TRUE(B.containsStr("ret(0,0)")) << "read before the write";
  EXPECT_TRUE(B.containsStr("ret(0,1)")) << "read after the write";
  EXPECT_FALSE(B.containsStr("UB")) << "wr races are not UB";
}

TEST(PsMachineTest, WriteWriteRaceIsUB) {
  auto P = prog("na x;\n"
                "thread { x@na := 1; return 0; }\n"
                "thread { x@na := 0; return 0; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  EXPECT_TRUE(B.containsStr("UB"));
}

TEST(PsMachineTest, AtomicAccessesNeverRaceWithAtomics) {
  auto P = prog("atomic x;\n"
                "thread { x@rlx := 1; return 0; }\n"
                "thread { a := x@rlx; return a; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  EXPECT_FALSE(B.containsStr("UB"));
  EXPECT_FALSE(B.containsStr("ret(0,undef)"))
      << "atomic accesses race only with NAMsg markers";
}

TEST(PsMachineTest, ReleaseAcquireSynchronizesNaData) {
  auto P = prog("na x; atomic y;\n"
                "thread { x@na := 1; y@rel := 1; return 0; }\n"
                "thread { b := y@acq; if (b == 1) { a := x@na; return a; } "
                "return 2; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  EXPECT_TRUE(B.containsStr("ret(0,1)"));
  EXPECT_TRUE(B.containsStr("ret(0,2)"));
  EXPECT_FALSE(B.containsStr("ret(0,undef)"))
      << "the acquire view covers the na write";
  EXPECT_FALSE(B.containsStr("ret(0,0)"));
}

//===----------------------------------------------------------------------===
// RMWs
//===----------------------------------------------------------------------===

TEST(PsMachineTest, FaddsAreAtomic) {
  auto P = prog("atomic x;\n"
                "thread { a := fadd(x, 1) @ rlx rlx; return a; }\n"
                "thread { b := fadd(x, 1) @ rlx rlx; return b; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  // One fadd reads 0, the other must read 1: total increment is 2.
  EXPECT_TRUE(B.containsStr("ret(0,1)"));
  EXPECT_TRUE(B.containsStr("ret(1,0)"));
  EXPECT_FALSE(B.containsStr("ret(0,0)")) << "updates attach to the read";
  EXPECT_FALSE(B.containsStr("ret(1,1)"));
}

TEST(PsMachineTest, CasMutualExclusion) {
  auto P = prog("atomic l;\n"
                "thread { a := cas(l, 0, 1) @ acq rel; return a; }\n"
                "thread { b := cas(l, 0, 1) @ acq rel; return b; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  EXPECT_TRUE(B.containsStr("ret(0,1)"));
  EXPECT_TRUE(B.containsStr("ret(1,0)"));
  EXPECT_FALSE(B.containsStr("ret(0,0)")) << "both CASes cannot win";
}

//===----------------------------------------------------------------------===
// Promises and certification
//===----------------------------------------------------------------------===

TEST(PsMachineTest, PromiseRequiresCertification) {
  // A thread that never writes x cannot sustain a promise to x; with the
  // promise budget the only behaviors are the promise-free ones.
  auto P = prog("atomic x;\n"
                "thread { a := x@rlx; return a; }\n"
                "thread { x@rlx := 1; return 0; }");
  PsBehaviorSet B = explorePsna(*P, cfg(/*Promises=*/1));
  EXPECT_TRUE(B.containsStr("ret(0,0)"));
  EXPECT_TRUE(B.containsStr("ret(1,0)"));
  EXPECT_EQ(B.All.size(), 2u);
}

TEST(PsMachineTest, LowerAllowsUndefFulfillment) {
  // The thread promises x = 1 but the actual write is undef (via a racy
  // read); lowering the promise to undef lets it be fulfilled. Mirrors
  // Appendix E's motivation.
  auto P = prog("na d; atomic x, y;\n"
                "thread { a := d@na; x@rlx := a; b := y@rlx; return b; }\n"
                "thread { c := x@rlx; y@rlx := c; d@na := 1; return c; }");
  PsBehaviorSet B = explorePsna(*P, cfg(/*Promises=*/1));
  // Thread 0 can promise x = undef (or lower a defined promise), thread 1
  // reads it, passes it through y; thread 0 reads it back.
  EXPECT_TRUE(B.containsStr("ret(undef,undef)"));
}

//===----------------------------------------------------------------------===
// Witness extraction
//===----------------------------------------------------------------------===

TEST(PsWitnessTest, Example51WitnessGoesThroughAPromise) {
  auto P = prog("na x; atomic y;\n"
                "thread { a := x@na; y@rlx := 1; return a; }\n"
                "thread { b := y@rlx; if (b == 1) { x@na := 1; } "
                "return b; }");
  std::vector<PsMachineState> Path =
      findPsnaWitness(*P, cfg(/*Promises=*/1), "ret(undef,1)");
  ASSERT_FALSE(Path.empty());
  // The path starts at the initial state and ends terminated.
  EXPECT_TRUE(Path.front().Mem.msgs(0).size() == 1 &&
              Path.front().Mem.msgs(1).size() == 1);
  EXPECT_TRUE(Path.back().allDone());
  // Some intermediate state carries an outstanding promise — the paper's
  // execution needs one.
  bool SawPromise = false;
  for (const PsMachineState &S : Path)
    for (unsigned Tid = 0; Tid != S.numThreads(); ++Tid)
      SawPromise |= !S.thread(Tid).Promises.empty();
  EXPECT_TRUE(SawPromise);
}

TEST(PsWitnessTest, UnreachableBehaviorHasNoWitness) {
  auto P = prog("atomic y;\n"
                "thread { a := y@rlx; return a; }");
  EXPECT_TRUE(findPsnaWitness(*P, cfg(), "ret(7)").empty());
  EXPECT_FALSE(findPsnaWitness(*P, cfg(), "ret(0)").empty());
}

//===----------------------------------------------------------------------===
// Normalization
//===----------------------------------------------------------------------===

TEST(PsMachineTest, NormalizationMergesIsomorphicStates) {
  // Two relaxed writes to different locations commute up to timestamps;
  // exploration should stay tiny thanks to normalization.
  auto P = prog("atomic x, y;\n"
                "thread { x@rlx := 1; return 0; }\n"
                "thread { y@rlx := 1; return 0; }");
  PsBehaviorSet B = explorePsna(*P, cfg());
  EXPECT_EQ(B.All.size(), 1u);
  EXPECT_LT(B.StatesExplored, 40u) << "state dedup must be effective";
}

TEST(PsMachineTest, NormalizationIsIdempotentAndOrderPreserving) {
  auto P = prog("atomic x; na y;\n"
                "thread { x@rlx := 1; y@na := 1; x@rel := 0; return 0; }\n"
                "thread { a := x@acq; return a; }");
  PsMachine M(*P, PsConfig());
  // Drive a few steps and check normalize ∘ normalize = normalize and
  // that message order per location is unchanged by ranking.
  PsMachineState S = M.initialState();
  for (unsigned Step = 0; Step != 3; ++Step) {
    PsStates Succ = M.threadSuccessors(S, 0);
    ASSERT_FALSE(Succ.empty());
    S = Succ.front();
    std::vector<Value> OrderBefore;
    for (const PsMessage &Msg : S.Mem.msgs(0))
      OrderBefore.push_back(Msg.Valueless ? Value::undef() : Msg.V);
    PsMachineState Twice = S;
    Twice.normalize();
    EXPECT_TRUE(S == Twice) << "normalize must be idempotent (successors "
                               "are already normalized)";
    std::vector<Value> OrderAfter;
    for (const PsMessage &Msg : Twice.Mem.msgs(0))
      OrderAfter.push_back(Msg.Valueless ? Value::undef() : Msg.V);
    EXPECT_EQ(OrderBefore, OrderAfter);
  }
}

//===----------------------------------------------------------------------===
// Certification table and in-place normalization, over the litmus corpus
//===----------------------------------------------------------------------===

namespace {

/// The corpus case's own budgets; \p Normalize off keeps raw timestamps.
PsConfig caseConfig(const LitmusCase &LC, bool Normalize = true) {
  PsConfig C;
  C.Domain = LC.Domain;
  C.PromiseBudget = LC.PromiseBudget;
  C.SplitBudget = LC.SplitBudget;
  C.Normalize = Normalize;
  return C;
}

/// Every state BFS reaches from \p P's initial state under \p Cfg, in
/// BFS order, capped at \p Cap states.
std::vector<PsMachineState> reachableStates(const Program &P,
                                            const PsConfig &Cfg,
                                            size_t Cap = 2000) {
  PsMachine M(P, Cfg);
  PsMachineState Init = M.initialState();
  if (Cfg.Normalize)
    Init.normalize();
  std::vector<PsMachineState> Out{Init};
  std::unordered_set<PsMachineState, PsStateHash> Seen{Init};
  for (size_t I = 0; I != Out.size() && Out.size() < Cap; ++I) {
    if (Out[I].Bottom)
      continue;
    for (unsigned Tid = 0; Tid != Out[I].numThreads(); ++Tid)
      for (PsMachineState &Next : M.threadSuccessors(Out[I], Tid))
        if (Out.size() < Cap && Seen.insert(Next).second)
          Out.push_back(std::move(Next));
  }
  return Out;
}

bool isMessageTo(const PsMemory &Mem, unsigned Loc, const Rational &T) {
  for (const PsMessage &M : Mem.msgs(Loc))
    if (M.To == T)
      return true;
  return false;
}

/// The invariant normalization relies on: every view entry (thread or
/// message) and every promise id is the To of some message.
void expectTimesAreMessageTos(const PsMachineState &S, const char *Case) {
  unsigned NumLocs = S.Mem.numLocs();
  auto checkView = [&](const View &V) {
    for (unsigned Loc = 0; Loc != NumLocs; ++Loc)
      EXPECT_TRUE(isMessageTo(S.Mem, Loc, V.get(Loc)))
          << Case << ": view entry " << V.get(Loc).str() << " at loc "
          << Loc << " is no message's To in " << S.str();
  };
  for (unsigned Tid = 0; Tid != S.numThreads(); ++Tid) {
    const PsThread &T = S.thread(Tid);
    checkView(T.V);
    for (const MsgId &Id : T.Promises)
      EXPECT_TRUE(isMessageTo(S.Mem, Id.Loc, Id.To)) << Case;
  }
  for (unsigned Loc = 0; Loc != NumLocs; ++Loc)
    for (const PsMessage &M : S.Mem.msgs(Loc))
      if (M.MView.has_value())
        checkView(*M.MView);
}

/// \p S itself plus, for every location, slot above thread \p Tid's view
/// and value, \p S with one more promise by \p Tid there — whether or not
/// it can be certified (the machine would have filtered the rejected ones
/// out of any reachable state). Each candidate is normalized.
std::vector<PsMachineState> promiseCandidates(const Program &P,
                                              const PsConfig &Cfg,
                                              const PsMachineState &S,
                                              unsigned Tid) {
  std::vector<PsMachineState> Out{S};
  std::vector<Value> Vals{Value::undef()};
  for (int64_t V : Cfg.Domain.values())
    Vals.push_back(Value::of(V));
  for (unsigned X = 0; X != S.Mem.numLocs(); ++X)
    for (const TimeSlot &Slot :
         S.Mem.slotsAbove(X, S.thread(Tid).V.get(X)))
      for (Value V : Vals) {
        PsMachineState C = S;
        PsMessage M;
        M.Loc = X;
        M.From = Slot.From;
        M.To = Slot.To;
        M.V = V;
        if (P.isAtomicLoc(X))
          M.MView = View::single(S.Mem.numLocs(), X, Slot.To);
        C.Mem.insert(M);
        PsThread T = C.thread(Tid);
        T.addPromise(MsgId{X, Slot.To});
        C.setThread(Tid, std::move(T));
        C.normalize();
        Out.push_back(std::move(C));
      }
  return Out;
}

} // namespace

TEST(PsNormalizeTest, ProjectionCommutesWithNormalization) {
  // The certification cache key is exact because normalizing ⟨T_tid, M⟩
  // gives the projection of the normalized state: ranks depend on the
  // memory alone. Raw (unnormalized) states make the ranking non-trivial.
  size_t Checked = 0;
  for (const LitmusCase &LC : litmusCorpus()) {
    auto P = prog(LC.Text);
    for (const PsMachineState &S :
         reachableStates(*P, caseConfig(LC, /*Normalize=*/false))) {
      expectTimesAreMessageTos(S, LC.Name.c_str());
      PsMachineState N = S;
      N.normalize();
      for (unsigned Tid = 0; Tid != S.numThreads(); ++Tid) {
        PsMachineState ProjThenNorm = S.project(Tid);
        ProjThenNorm.normalize();
        EXPECT_TRUE(ProjThenNorm == N.project(Tid))
            << LC.Name << " tid " << Tid << ": " << S.str();
        ++Checked;
      }
    }
  }
  EXPECT_GT(Checked, 1000u);
}

TEST(PsNormalizeTest, DenseRanksOrderPreservedIdempotent) {
  for (const LitmusCase &LC : litmusCorpus()) {
    auto P = prog(LC.Text);
    for (const PsMachineState &S :
         reachableStates(*P, caseConfig(LC, /*Normalize=*/false))) {
      PsMachineState N = S;
      N.normalize();
      for (unsigned Loc = 0; Loc != S.Mem.numLocs(); ++Loc) {
        // Dense: the endpoints are exactly 0..k, in message order.
        std::vector<Rational> Ends{Rational(0)};
        for (const PsMessage &M : N.Mem.msgs(Loc))
          for (const Rational &T : {M.From, M.To})
            if (Ends.back() != T)
              Ends.push_back(T);
        for (size_t I = 0; I != Ends.size(); ++I)
          EXPECT_EQ(Ends[I], Rational(static_cast<int64_t>(I)))
              << LC.Name << " loc " << Loc << ": " << N.str();
        // Order-preserving: the same messages in the same order, and each
        // timestamp keeps its relative position.
        const MsgVec &Before = S.Mem.msgs(Loc);
        const MsgVec &After = N.Mem.msgs(Loc);
        ASSERT_EQ(Before.size(), After.size()) << LC.Name;
        for (size_t I = 0; I != Before.size(); ++I) {
          EXPECT_EQ(Before[I].Valueless, After[I].Valueless) << LC.Name;
          if (!Before[I].Valueless) {
            EXPECT_EQ(Before[I].V, After[I].V) << LC.Name;
          }
          EXPECT_EQ(Before[I].MView.has_value(), After[I].MView.has_value())
              << LC.Name;
          EXPECT_EQ(Before[I].From == Before[I].To,
                    After[I].From == After[I].To)
              << LC.Name;
          if (I != 0) {
            EXPECT_EQ(Before[I - 1].To == Before[I].From,
                      After[I - 1].To == After[I].From)
                << LC.Name << ": adjacency changed";
          }
        }
      }
      for (unsigned Tid = 0; Tid != S.numThreads(); ++Tid)
        EXPECT_EQ(S.thread(Tid).Promises.size(),
                  N.thread(Tid).Promises.size());
      PsMachineState Twice = N;
      Twice.normalize();
      EXPECT_TRUE(Twice == N) << LC.Name << ": normalize not idempotent";
    }
  }
}

TEST(PsCertTableTest, TableVerdictsMatchFreshSearches) {
  // Every (state, tid) answered by a machine whose table earlier queries
  // filled must match a fresh search, verdict and budget hit alike. The
  // queries are the reachable states plus one-promise extensions of them
  // (so rejections occur), at the case's node budget and at a tiny one (so
  // searches run out). A search that fails within budget also answers for
  // every state it visited, so some hits land on keys no search started
  // from. The verdicts a machine hands back are new ones only: none
  // re-queues a key its frozen table already holds.
  size_t Queries = 0, Hits = 0, VisitedHits = 0, Rejected = 0,
         BudgetHits = 0, Requeued = 0, Taken = 0;
  for (unsigned NodeBudget : {20000u, 6u}) {
    for (const LitmusCase &LC : litmusCorpus()) {
      if (LC.PromiseBudget == 0)
        continue;
      auto P = prog(LC.Text);
      PsConfig Cfg = caseConfig(LC);
      Cfg.CertNodeBudget = NodeBudget;
      CertTable Table;
      // Keys some search started from.
      std::unordered_set<memo::Fp128, memo::Fp128Hash> Roots;
      for (const PsMachineState &S :
           reachableStates(*P, caseConfig(LC), /*Cap=*/150)) {
        if (S.Bottom)
          continue;
        for (unsigned Tid = 0; Tid != S.numThreads(); ++Tid) {
          if (S.thread(Tid).Prog.status() != ProgState::Status::Running)
            continue;
          for (const PsMachineState &Q :
               promiseCandidates(*P, Cfg, S, Tid)) {
            if (Q.thread(Tid).Promises.empty())
              continue;
            PsMachine Fresh(*P, Cfg);
            bool Want = Fresh.certifiable(Q, Tid);
            PsMachine Tabled(*P, Cfg);
            Tabled.setCertTable(&Table);
            memo::Fp128 Key = PsMachine::certKey(Q, Tid);
            if (Table.count(Key)) {
              ++Hits;
              VisitedHits += !Roots.count(Key);
            } else {
              Roots.insert(Key);
            }
            EXPECT_EQ(Tabled.certifiable(Q, Tid), Want)
                << LC.Name << " tid " << Tid << ": " << Q.str();
            EXPECT_EQ(Tabled.certBudgetHit(), Fresh.certBudgetHit())
                << LC.Name << " tid " << Tid << ": " << Q.str();
            CertTable New = Tabled.takeCertVerdicts();
            for (const auto &KV : New)
              Requeued += Table.count(KV.first);
            Taken += New.size();
            Table.merge(New);
            ++Queries;
            Rejected += !Want;
            BudgetHits += Fresh.certBudgetHit();
          }
        }
      }
    }
  }
  // The comparison must have exercised table hits, rejections and budget
  // hits.
  EXPECT_GT(Queries, 1000u);
  EXPECT_GT(Hits, 100u);
  EXPECT_GT(VisitedHits, 0u);
  EXPECT_GT(Rejected, 100u);
  EXPECT_GT(BudgetHits, 100u);
  EXPECT_GT(Taken, 1000u);
  EXPECT_EQ(Requeued, 0u) << "pending verdicts repeat frozen-table keys";
}

//===----------------------------------------------------------------------===
// Step-local re-ranking and copy-on-write states
//===----------------------------------------------------------------------===

TEST(PsNormalizeTest, SuccessorsAreNormalizeFixpoints) {
  // A step re-ranks only the location it inserts a message at, and every
  // other step inserts nothing. A step that skipped or mis-targeted its
  // re-rank would leave a successor the full normalize() still changes.
  size_t Checked = 0;
  auto check = [&Checked](const LitmusCase &LC, const PsConfig &Cfg) {
    auto P = prog(LC.Text);
    PsMachine M(*P, Cfg);
    for (const PsMachineState &S :
         reachableStates(*P, Cfg, /*Cap=*/100000)) {
      for (unsigned Tid = 0; Tid != S.numThreads(); ++Tid)
        for (const PsMachineState &N : M.threadSuccessors(S, Tid)) {
          PsMachineState Full = N;
          Full.normalize();
          EXPECT_TRUE(Full == N) << LC.Name << " tid " << Tid << ": "
                                 << N.str() << " normalizes to "
                                 << Full.str();
          ++Checked;
        }
    }
  };
  for (const LitmusCase &LC : litmusCorpus())
    check(LC, caseConfig(LC));
  for (const char *Name : {"lb-rel", "mp-rel-acq"}) {
    const LitmusCase &LC = litmusCaseByName(Name);
    PsConfig Cfg = caseConfig(LC);
    Cfg.PromiseBudget = 2;
    check(LC, Cfg);
  }
  EXPECT_GT(Checked, 5000u);
}

namespace {

/// A deep copy of a state's contents, sharing nothing with it.
struct StateSnapshot {
  std::vector<PsThread> Threads;
  std::vector<MsgVec> Msgs;
  std::vector<Value> Outs;
  bool Bottom = false;
  std::string Str;

  explicit StateSnapshot(const PsMachineState &S)
      : Outs(S.Outs), Bottom(S.Bottom), Str(S.str()) {
    for (unsigned Tid = 0; Tid != S.numThreads(); ++Tid)
      Threads.push_back(S.thread(Tid));
    for (unsigned Loc = 0; Loc != S.Mem.numLocs(); ++Loc)
      Msgs.push_back(S.Mem.msgs(Loc));
  }

  /// A state with these contents whose every list and thread hash is
  /// computed afresh.
  PsMachineState rebuild() const {
    PsMachineState R;
    R.Mem = PsMemory::initial(static_cast<unsigned>(Msgs.size()));
    for (unsigned Loc = 0; Loc != Msgs.size(); ++Loc)
      R.Mem.update(Loc, [&](MsgVec &Ms) { Ms = Msgs[Loc]; });
    for (unsigned Tid = 0; Tid != Threads.size(); ++Tid)
      R.setThread(Tid, Threads[Tid]);
    R.Outs = Outs;
    R.Bottom = Bottom;
    return R;
  }

  bool operator==(const StateSnapshot &O) const = default;
};

} // namespace

TEST(PsCopyOnWriteTest, StepsAndSearchesLeaveTheirStateUntouched) {
  // Successors and certification projections share lists and threads
  // with the state they came from; building them must never write
  // through to it. The cached hashes must also match fresh ones.
  size_t Steps = 0, Searches = 0;
  for (const LitmusCase &LC : litmusCorpus()) {
    auto P = prog(LC.Text);
    PsConfig Cfg = caseConfig(LC);
    for (const PsMachineState &S : reachableStates(*P, Cfg, /*Cap=*/400)) {
      StateSnapshot Before(S);
      uint64_t Hash = S.hash();
      EXPECT_EQ(Before.rebuild().hash(), Hash) << LC.Name << ": " << S.str();
      EXPECT_TRUE(Before.rebuild() == S) << LC.Name << ": " << S.str();
      for (unsigned Tid = 0; Tid != S.numThreads(); ++Tid) {
        PsMachine M(*P, Cfg);
        M.threadSuccessors(S, Tid);
        ++Steps;
        if (!S.thread(Tid).Promises.empty()) {
          PsMachine Fresh(*P, Cfg); // no table: the search runs from S
          Fresh.certifiable(S, Tid);
          ++Searches;
        }
        EXPECT_TRUE(StateSnapshot(S) == Before)
            << LC.Name << " tid " << Tid << ": " << Before.Str << " became "
            << S.str();
        EXPECT_EQ(S.hash(), Hash) << LC.Name << " tid " << Tid;
      }
    }
  }
  EXPECT_GT(Steps, 1000u);
  EXPECT_GT(Searches, 100u);
}

TEST(PsCopyOnWriteTest, MutatingACopyLeavesTheOriginal) {
  // Insert a message at every location, lower every promise, move every
  // thread and re-rank — all on a copy. The original keeps its contents.
  size_t Mutated = 0;
  for (const LitmusCase &LC : litmusCorpus()) {
    auto P = prog(LC.Text);
    for (const PsMachineState &S :
         reachableStates(*P, caseConfig(LC), /*Cap=*/200)) {
      StateSnapshot Before(S);
      PsMachineState C = S;
      for (unsigned X = 0; X != C.Mem.numLocs(); ++X) {
        TimeSlot Slot = C.Mem.slotsAbove(X, Rational(0)).back();
        PsMessage M;
        M.Loc = X;
        M.From = Slot.From;
        M.To = Slot.To;
        M.V = Value::of(1);
        C.Mem.insert(M);
      }
      for (unsigned Tid = 0; Tid != C.numThreads(); ++Tid) {
        for (const MsgId &Id : C.thread(Tid).Promises)
          C.Mem.update(Id.Loc, [&Id](MsgVec &Ms) {
            for (PsMessage &M : Ms)
              if (M.To == Id.To) {
                M.V = Value::undef();
                M.MView = std::nullopt;
              }
          });
        PsThread T = C.thread(Tid);
        T.Prog.setError();
        T.Promises.clear();
        C.setThread(Tid, std::move(T));
      }
      C.normalize();
      EXPECT_FALSE(C == S) << LC.Name;
      EXPECT_TRUE(StateSnapshot(S) == Before)
          << LC.Name << ": " << Before.Str << " became " << S.str();
      ++Mutated;
    }
  }
  EXPECT_GT(Mutated, 500u);
}

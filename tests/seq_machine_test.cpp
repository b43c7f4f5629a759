//===- tests/seq_machine_test.cpp - Fig 1 transition rules ----------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Exercises every transition rule of the SEQ machine (Fig. 1) on unit
// programs: na-read, na-write, racy-na-read, racy-na-write, choice/relaxed,
// acq-read, rel-write, silent, and the fence/RMW extensions.
//
//===----------------------------------------------------------------------===//

#include "seq/SeqMachine.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace pseq;

namespace {

SeqConfig cfg(const Program &P, ValueDomain D = ValueDomain::binary()) {
  SeqConfig C;
  C.Domain = D;
  C.Universe = P.naLocs();
  return C;
}

std::vector<Value> zeroMem(const Program &P) {
  return std::vector<Value>(P.numLocs(), Value::of(0));
}

} // namespace

TEST(SeqMachineTest, NaReadWithPermissionLoadsMemory) {
  auto P = prog("na x; thread { a := x@na; return a; }");
  SeqMachine M(*P, 0, cfg(*P));
  std::vector<Value> Mem = zeroMem(*P);
  Mem[0] = Value::of(1);
  SeqState S = M.initial(LocSet::single(0), LocSet::empty(), Mem);

  SeqTransitions Succ = M.successors(S);
  ASSERT_EQ(Succ.size(), 1u) << "na-read is deterministic";
  EXPECT_TRUE(Succ[0].Labels.empty()) << "na accesses are unlabeled";
  EXPECT_EQ(Succ[0].Next.Prog.regs()[0], Value::of(1));
}

TEST(SeqMachineTest, RacyNaReadLoadsUndef) {
  auto P = prog("na x; thread { a := x@na; return a; }");
  SeqMachine M(*P, 0, cfg(*P));
  SeqState S = M.initial(LocSet::empty(), LocSet::empty(), zeroMem(*P));

  SeqTransitions Succ = M.successors(S);
  ASSERT_EQ(Succ.size(), 1u);
  EXPECT_TRUE(Succ[0].Next.Prog.regs()[0].isUndef());
  EXPECT_FALSE(Succ[0].Next.isBottom()) << "racy reads are not UB";
}

TEST(SeqMachineTest, NaWriteUpdatesMemoryAndWrittenSet) {
  auto P = prog("na x; thread { x@na := 1; return 0; }");
  SeqMachine M(*P, 0, cfg(*P));
  SeqState S = M.initial(LocSet::single(0), LocSet::empty(), zeroMem(*P));

  SeqTransitions Succ = M.successors(S);
  ASSERT_EQ(Succ.size(), 1u);
  EXPECT_TRUE(Succ[0].Labels.empty());
  EXPECT_EQ(Succ[0].Next.Mem[0], Value::of(1));
  EXPECT_TRUE(Succ[0].Next.Written.contains(0)) << "F gains the location";
}

TEST(SeqMachineTest, RacyNaWriteIsUB) {
  auto P = prog("na x; thread { x@na := 1; return 0; }");
  SeqMachine M(*P, 0, cfg(*P));
  SeqState S = M.initial(LocSet::empty(), LocSet::empty(), zeroMem(*P));

  SeqTransitions Succ = M.successors(S);
  ASSERT_EQ(Succ.size(), 1u);
  EXPECT_TRUE(Succ[0].Next.isBottom()) << "racy-na-write invokes UB";
}

TEST(SeqMachineTest, RlxReadBranchesOverDomainPlusUndef) {
  auto P = prog("atomic z; thread { a := z@rlx; return a; }");
  SeqMachine M(*P, 0, cfg(*P));
  SeqState S = M.initial(LocSet::empty(), LocSet::empty(), zeroMem(*P));

  SeqTransitions Succ = M.successors(S);
  // Binary domain {0,1} plus undef.
  ASSERT_EQ(Succ.size(), 3u);
  for (const SeqTransition &T : Succ) {
    ASSERT_EQ(T.Labels.size(), 1u);
    EXPECT_EQ(T.Labels[0].K, SeqEvent::Kind::RlxRead);
  }
}

TEST(SeqMachineTest, RlxWriteEmitsLabelWithoutTouchingState) {
  auto P = prog("atomic z; na x; thread { z@rlx := 1; return 0; }");
  SeqMachine M(*P, 0, cfg(*P));
  LocSet Perm = LocSet::single(*P->lookupLoc("x"));
  SeqState S = M.initial(Perm, LocSet::empty(), zeroMem(*P));

  SeqTransitions Succ = M.successors(S);
  ASSERT_EQ(Succ.size(), 1u);
  ASSERT_EQ(Succ[0].Labels.size(), 1u);
  EXPECT_EQ(Succ[0].Labels[0].K, SeqEvent::Kind::RlxWrite);
  EXPECT_EQ(Succ[0].Labels[0].V, Value::of(1));
  EXPECT_EQ(Succ[0].Next.Perm, Perm) << "relaxed writes keep permissions";
  EXPECT_EQ(Succ[0].Next.Written, LocSet::empty());
}

TEST(SeqMachineTest, AcqReadGainsPermissionsAndValues) {
  auto P = prog("atomic z; na x; thread { a := z@acq; b := x@na; return b; }");
  SeqMachine M(*P, 0, cfg(*P));
  unsigned X = *P->lookupLoc("x");
  SeqState S = M.initial(LocSet::empty(), LocSet::empty(), zeroMem(*P));

  SeqTransitions Succ = M.successors(S);
  // 3 read values × (P'=∅ (1 map) + P'={x} (3 maps)) = 12.
  ASSERT_EQ(Succ.size(), 12u);
  bool SawGain = false;
  for (const SeqTransition &T : Succ) {
    ASSERT_EQ(T.Labels.size(), 1u);
    const SeqEvent &E = T.Labels[0];
    ASSERT_EQ(E.K, SeqEvent::Kind::AcqRead);
    EXPECT_EQ(E.P, LocSet::empty());
    EXPECT_EQ(T.Next.Perm, E.P2);
    if (E.P2.contains(X)) {
      SawGain = true;
      const Value *V = E.Vm.lookup(X);
      ASSERT_NE(V, nullptr) << "gained locations get new values";
      EXPECT_EQ(T.Next.Mem[X], *V);
    }
  }
  EXPECT_TRUE(SawGain);
}

TEST(SeqMachineTest, RelWriteLosesPermissionsRecordsMemoryResetsF) {
  auto P = prog("atomic z; na x; thread { z@rel := 1; return 0; }");
  SeqMachine M(*P, 0, cfg(*P));
  unsigned X = *P->lookupLoc("x");
  std::vector<Value> Mem = zeroMem(*P);
  Mem[X] = Value::of(1);
  SeqState S = M.initial(LocSet::single(X), LocSet::single(X), Mem);

  SeqTransitions Succ = M.successors(S);
  ASSERT_EQ(Succ.size(), 2u) << "P' ranges over subsets of P";
  for (const SeqTransition &T : Succ) {
    ASSERT_EQ(T.Labels.size(), 1u);
    const SeqEvent &E = T.Labels[0];
    ASSERT_EQ(E.K, SeqEvent::Kind::RelWrite);
    EXPECT_EQ(E.P, LocSet::single(X));
    EXPECT_EQ(E.F, LocSet::single(X)) << "label records F before the reset";
    ASSERT_NE(E.Vm.lookup(X), nullptr) << "released memory is M|P";
    EXPECT_EQ(*E.Vm.lookup(X), Value::of(1));
    EXPECT_EQ(T.Next.Written, LocSet::empty()) << "rel-write resets F";
    EXPECT_TRUE(T.Next.Perm.isSubsetOf(LocSet::single(X)));
  }
}

TEST(SeqMachineTest, ChooseBranchesOverDefinedValues) {
  auto P = prog("thread { c := choose; return c; }");
  SeqMachine M(*P, 0, cfg(*P));
  SeqState S = M.initial(LocSet::empty(), LocSet::empty(), zeroMem(*P));

  SeqTransitions Succ = M.successors(S);
  ASSERT_EQ(Succ.size(), 2u) << "choose never resolves to undef";
  for (const SeqTransition &T : Succ) {
    ASSERT_EQ(T.Labels.size(), 1u);
    EXPECT_EQ(T.Labels[0].K, SeqEvent::Kind::Choose);
    EXPECT_FALSE(T.Labels[0].V.isUndef());
  }
}

TEST(SeqMachineTest, AcquireFenceGainsLikeAcqRead) {
  auto P = prog("na x; thread { fence @ acq; return 0; }");
  SeqMachine M(*P, 0, cfg(*P));
  SeqState S = M.initial(LocSet::empty(), LocSet::empty(), zeroMem(*P));

  SeqTransitions Succ = M.successors(S);
  ASSERT_EQ(Succ.size(), 4u); // P'=∅ + P'={x} with 3 values
  for (const SeqTransition &T : Succ)
    EXPECT_EQ(T.Labels[0].K, SeqEvent::Kind::AcqFence);
}

TEST(SeqMachineTest, ReleaseFenceResetsWrittenSet) {
  auto P = prog("na x; thread { x@na := 1; fence @ rel; return 0; }");
  SeqMachine M(*P, 0, cfg(*P));
  SeqState S = M.initial(LocSet::single(0), LocSet::empty(), zeroMem(*P));
  S = M.successors(S)[0].Next; // the na write
  ASSERT_TRUE(S.Written.contains(0));

  SeqTransitions Succ = M.successors(S);
  ASSERT_EQ(Succ.size(), 2u);
  for (const SeqTransition &T : Succ) {
    EXPECT_EQ(T.Labels[0].K, SeqEvent::Kind::RelFence);
    EXPECT_EQ(T.Labels[0].F, LocSet::single(0));
    EXPECT_EQ(T.Next.Written, LocSet::empty());
  }
}

TEST(SeqMachineTest, RmwEmitsReadAndWriteLabels) {
  auto P = prog("atomic z; thread { r := fadd(z, 1) @ rlx rlx; return r; }");
  SeqMachine M(*P, 0, cfg(*P));
  SeqState S = M.initial(LocSet::empty(), LocSet::empty(), zeroMem(*P));

  SeqTransitions Succ = M.successors(S);
  ASSERT_EQ(Succ.size(), 3u); // old values {0,1,undef}
  for (const SeqTransition &T : Succ) {
    ASSERT_EQ(T.Labels.size(), 2u);
    EXPECT_EQ(T.Labels[0].K, SeqEvent::Kind::RlxRead);
    EXPECT_EQ(T.Labels[1].K, SeqEvent::Kind::RlxWrite);
    if (T.Labels[0].V.isUndef())
      EXPECT_TRUE(T.Labels[1].V.isUndef()) << "undef + 1 = undef";
    else
      EXPECT_EQ(T.Labels[1].V, Value::of(T.Labels[0].V.get() + 1));
  }
}

TEST(SeqMachineTest, FailedCasEmitsOnlyReadLabel) {
  auto P = prog("atomic z; thread { r := cas(z, 0, 1) @ rlx rlx; return r; }");
  SeqMachine M(*P, 0, cfg(*P));
  SeqState S = M.initial(LocSet::empty(), LocSet::empty(), zeroMem(*P));

  bool SawFailure = false, SawSuccess = false, SawUB = false;
  for (const SeqTransition &T : M.successors(S)) {
    if (T.Next.isBottom()) {
      SawUB = true; // comparison against undef
      continue;
    }
    if (T.Labels.size() == 1)
      SawFailure = true;
    if (T.Labels.size() == 2)
      SawSuccess = true;
  }
  EXPECT_TRUE(SawFailure);
  EXPECT_TRUE(SawSuccess);
  EXPECT_TRUE(SawUB);
}

TEST(SeqMachineTest, PrintEmitsSyscallLabel) {
  auto P = prog("thread { print(7); return 0; }");
  SeqMachine M(*P, 0, cfg(*P));
  SeqState S = M.initial(LocSet::empty(), LocSet::empty(), zeroMem(*P));

  SeqTransitions Succ = M.successors(S);
  ASSERT_EQ(Succ.size(), 1u);
  ASSERT_EQ(Succ[0].Labels.size(), 1u);
  EXPECT_EQ(Succ[0].Labels[0].K, SeqEvent::Kind::Syscall);
  EXPECT_EQ(Succ[0].Labels[0].V, Value::of(7));
}

TEST(SeqMachineTest, TerminalStatesHaveNoSuccessors) {
  auto P = prog("thread { return 1; }");
  SeqMachine M(*P, 0, cfg(*P));
  SeqState S = M.initial(LocSet::empty(), LocSet::empty(), zeroMem(*P));
  S = M.successors(S)[0].Next;
  ASSERT_TRUE(S.isTerminated());
  EXPECT_TRUE(M.successors(S).empty());
}

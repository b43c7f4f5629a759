//===- litmus/RealWorld.cpp - Lock-free protocol corpus -------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// The protocols follow the RMC case studies (ROADMAP item 2) at bounded
// scale. Two modeling constraints shaped the ports:
//
//  * The PS^na machine approximates fences with a single view (an acquire
//    fence is a state no-op, psna/Machine.cpp), so SC-fence handshakes
//    give no Dekker-style exclusion; protocols synchronize exclusively
//    through release/acquire message passing and RMWs (which must read
//    the latest message — the coww-fadd litmus case pins that).
//
//  * The static race lint derives happens-before facts only from
//    "register == constant" branches on acquire-read results, so every
//    flag wait is written as load-then-test (`a := f@acq; while (a != 1)
//    { a := f@acq; }` keeps the acquire provenance through the loop
//    join), never as an opaque condition.
//
// Annotations were pinned against the explorer's actual outcome sets
// (tests/realworld_test.cpp re-checks them on every run at 1/2/8 workers).
//
//===----------------------------------------------------------------------===//

#include "litmus/RealWorld.h"

#include "guard/Guard.h"
#include "lang/Parser.h"
#include "memo/MemoContext.h"
#include "obs/Telemetry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace pseq;

namespace {

/// Shared budget presets. Every case names one explicitly — the point of
/// RealWorldBudgets is that nobody inherits a default silently.
RealWorldBudgets budgets(unsigned PromiseBudget, unsigned SplitBudget,
                         unsigned StepBudget, unsigned MaxStates,
                         unsigned CertNodeBudget, uint64_t DeadlineMs,
                         uint64_t MemMb) {
  RealWorldBudgets B;
  B.PromiseBudget = PromiseBudget;
  B.SplitBudget = SplitBudget;
  B.StepBudget = StepBudget;
  B.MaxStates = MaxStates;
  B.CertNodeBudget = CertNodeBudget;
  B.DeadlineMs = DeadlineMs;
  B.MemMb = MemMb;
  B.ExplicitlySet = true;
  return B;
}

std::vector<RealWorldCase> buildRealWorld() {
  std::vector<RealWorldCase> C;
  auto add = [&](RealWorldCase RC) { C.push_back(std::move(RC)); };
  using analysis::RaceVerdict;

  // The standard per-case budget at this scale: no promises — the full
  // corpus was verified annotation-clean at PromiseBudget=1 (every
  // exclusion is promise-robust), but certification multiplies corpus
  // runtime by ~1000x, so the fast preset keeps 0 and
  // tests/realworld_test.cpp re-checks a sample of cheap cases at
  // budget 1. Corpus-sized step budgets for the SEQ validators, and
  // generous explorer caps that real runs stay far under.
  const RealWorldBudgets Std =
      budgets(/*PromiseBudget=*/0, /*SplitBudget=*/0, /*StepBudget=*/160,
              /*MaxStates=*/400000, /*CertNodeBudget=*/20000,
              /*DeadlineMs=*/60000, /*MemMb=*/512);

  //===--------------------------------------------------------------------===
  // SPSC ring buffer (ringbuf.c): one slot, monotone write/read indices.
  // The producer pushes 1 then 2 through the slot; the consumer pops both.
  // Each side release-publishes its index and acquire-waits on the other's
  // — the two directions exercise both happens-before discharge rules of
  // the lint (writer-publishes for the reads, reader-signals for the
  // overwrite).
  //===--------------------------------------------------------------------===
  const char *SpscRing = "na s; atomic w, r;\n"
                         "thread {\n"
                         "  s@na := 1; w@rel := 1;\n"
                         "  a := r@acq; while (a != 1) { a := r@acq; }\n"
                         "  s@na := 2; w@rel := 2;\n"
                         "  return 0;\n"
                         "}\n"
                         "thread {\n"
                         "  b := w@acq; while (b != 1) { b := w@acq; }\n"
                         "  x := s@na; r@rel := 1;\n"
                         "  c := w@acq; while (c != 2) { c := w@acq; }\n"
                         "  y := s@na;\n"
                         "  return x * 10 + y;\n"
                         "}\n";
  add({"rw-spsc-ring",
       "RMC case study: ringbuf.c (single-producer/single-consumer ring)",
       "spsc-ring", SpscRing,
       /*MustInclude=*/{"ret(0,12)"},
       /*MustExclude=*/
       {"ret(0,2)", "ret(0,10)", "ret(0,11)", "ret(0,undef)", "UB"},
       /*BadBehaviors=*/{},
       /*IsMutant=*/false, /*MutantOf=*/"", RaceVerdict::RaceFree,
       ValueDomain::ternary(), Std});

  // Mutant: the first publish is relaxed — the consumer's acquire read of
  // w=1 carries no view, so the slot read races with the store.
  const char *SpscRingRlx = "na s; atomic w, r;\n"
                            "thread {\n"
                            "  s@na := 1; w@rlx := 1;\n"
                            "  a := r@acq; while (a != 1) { a := r@acq; }\n"
                            "  s@na := 2; w@rel := 2;\n"
                            "  return 0;\n"
                            "}\n"
                            "thread {\n"
                            "  b := w@acq; while (b != 1) { b := w@acq; }\n"
                            "  x := s@na; r@rel := 1;\n"
                            "  c := w@acq; while (c != 2) { c := w@acq; }\n"
                            "  y := s@na;\n"
                            "  return x * 10 + y;\n"
                            "}\n";
  add({"rw-spsc-ring-rlx-publish",
       "rw-spsc-ring with the w@rel:=1 publish weakened to rlx",
       "spsc-ring", SpscRingRlx,
       /*MustInclude=*/{"ret(0,12)", "ret(0,undef)"},
       /*MustExclude=*/{"UB"},
       /*BadBehaviors=*/{"ret(0,undef)"},
       /*IsMutant=*/true, "rw-spsc-ring", RaceVerdict::PotentiallyRacy,
       ValueDomain::ternary(), Std});

  //===--------------------------------------------------------------------===
  // Michael-Scott-style two-cell queue (ms_queue_*.hpp): the producer
  // enqueues by writing the cell then release-linking it (the node->next
  // publication); two consumers race to dequeue by claiming cell indices
  // with an RMW on head — fadd serialization is what forbids the double
  // dequeue.
  //===--------------------------------------------------------------------===
  const char *MsQueue =
      "na q0, q1; atomic r0, r1, head;\n"
      "thread {\n"
      "  q0@na := 1; r0@rel := 1;\n"
      "  q1@na := 2; r1@rel := 1;\n"
      "  return 0;\n"
      "}\n"
      "thread {\n"
      "  i := fadd(head, 1) @ rlx rlx;\n"
      "  if (i == 0) {\n"
      "    a := r0@acq; while (a != 1) { a := r0@acq; }\n"
      "    v := q0@na; return v;\n"
      "  }\n"
      "  a := r1@acq; while (a != 1) { a := r1@acq; }\n"
      "  v := q1@na; return v;\n"
      "}\n"
      "thread {\n"
      "  j := fadd(head, 1) @ rlx rlx;\n"
      "  if (j == 0) {\n"
      "    b := r0@acq; while (b != 1) { b := r0@acq; }\n"
      "    u := q0@na; return u;\n"
      "  }\n"
      "  b := r1@acq; while (b != 1) { b := r1@acq; }\n"
      "  u := q1@na; return u;\n"
      "}\n";
  add({"rw-ms-queue",
       "RMC case study: ms_queue_*.hpp (Michael & Scott 1996, two cells)",
       "ms-queue", MsQueue,
       /*MustInclude=*/{"ret(0,1,2)", "ret(0,2,1)"},
       /*MustExclude=*/
       {"ret(0,1,1)", "ret(0,2,2)", "ret(0,undef,2)", "ret(0,1,undef)",
        "ret(0,undef,1)", "ret(0,2,undef)", "ret(0,undef,undef)", "UB"},
       /*BadBehaviors=*/{},
       /*IsMutant=*/false, /*MutantOf=*/"", RaceVerdict::RaceFree,
       ValueDomain::ternary(), Std});

  // Mutant: the first cell's link is relaxed — the winning consumer's
  // acquire read of r0 synchronizes with nothing, so the cell read races.
  const char *MsQueueRlx =
      "na q0, q1; atomic r0, r1, head;\n"
      "thread {\n"
      "  q0@na := 1; r0@rlx := 1;\n"
      "  q1@na := 2; r1@rel := 1;\n"
      "  return 0;\n"
      "}\n"
      "thread {\n"
      "  i := fadd(head, 1) @ rlx rlx;\n"
      "  if (i == 0) {\n"
      "    a := r0@acq; while (a != 1) { a := r0@acq; }\n"
      "    v := q0@na; return v;\n"
      "  }\n"
      "  a := r1@acq; while (a != 1) { a := r1@acq; }\n"
      "  v := q1@na; return v;\n"
      "}\n"
      "thread {\n"
      "  j := fadd(head, 1) @ rlx rlx;\n"
      "  if (j == 0) {\n"
      "    b := r0@acq; while (b != 1) { b := r0@acq; }\n"
      "    u := q0@na; return u;\n"
      "  }\n"
      "  b := r1@acq; while (b != 1) { b := r1@acq; }\n"
      "  u := q1@na; return u;\n"
      "}\n";
  add({"rw-ms-queue-rlx-publish",
       "rw-ms-queue with the r0@rel:=1 link weakened to rlx",
       "ms-queue", MsQueueRlx,
       /*MustInclude=*/
       {"ret(0,1,2)", "ret(0,2,1)", "ret(0,undef,2)", "ret(0,2,undef)"},
       /*MustExclude=*/{"ret(0,1,1)", "ret(0,2,2)", "UB"},
       /*BadBehaviors=*/{"ret(0,undef,2)", "ret(0,2,undef)"},
       /*IsMutant=*/true, "rw-ms-queue", RaceVerdict::PotentiallyRacy,
       ValueDomain::ternary(), Std});

  // Mutant: the RMW claim is replaced by a plain load-then-store — two
  // consumers can both read head=0 and dequeue the same cell. Not a race
  // (every access stays atomic; the cell reads are still r0/r1-guarded):
  // a logic bug only the behavior annotations catch.
  const char *MsQueuePlain =
      "na q0, q1; atomic r0, r1, head;\n"
      "thread {\n"
      "  q0@na := 1; r0@rel := 1;\n"
      "  q1@na := 2; r1@rel := 1;\n"
      "  return 0;\n"
      "}\n"
      "thread {\n"
      "  i := head@rlx; head@rlx := i + 1;\n"
      "  if (i == 0) {\n"
      "    a := r0@acq; while (a != 1) { a := r0@acq; }\n"
      "    v := q0@na; return v;\n"
      "  }\n"
      "  a := r1@acq; while (a != 1) { a := r1@acq; }\n"
      "  v := q1@na; return v;\n"
      "}\n"
      "thread {\n"
      "  j := head@rlx; head@rlx := j + 1;\n"
      "  if (j == 0) {\n"
      "    b := r0@acq; while (b != 1) { b := r0@acq; }\n"
      "    u := q0@na; return u;\n"
      "  }\n"
      "  b := r1@acq; while (b != 1) { b := r1@acq; }\n"
      "  u := q1@na; return u;\n"
      "}\n";
  add({"rw-ms-queue-plain-claim",
       "rw-ms-queue with the fadd head claim torn into load + store",
       "ms-queue", MsQueuePlain,
       /*MustInclude=*/{"ret(0,1,2)", "ret(0,2,1)", "ret(0,1,1)"},
       /*MustExclude=*/{"ret(0,undef,2)", "ret(0,2,undef)", "UB"},
       /*BadBehaviors=*/{"ret(0,1,1)"},
       /*IsMutant=*/true, "rw-ms-queue", RaceVerdict::RaceFree,
       ValueDomain::ternary(), Std});

  //===--------------------------------------------------------------------===
  // RCU read/publish/retire (rculist_*.hpp): the writer publishes a new
  // cell through ptr@rel, the reader dereferences through ptr@acq and
  // release-signals quiescence after its read; the writer acquire-waits
  // for the signal before retiring (re-poisoning) the old cell. The
  // retire-vs-read pair is only dischargeable with the reader-signals
  // happens-before rule (the fact sits on the *writer's* retire store).
  //===--------------------------------------------------------------------===
  const char *Rcu =
      "na d0, d1; atomic ptr, rq;\n"
      "thread {\n"
      "  d1@na := 1; ptr@rel := 1;\n"
      "  q := rq@acq; while (q != 1) { q := rq@acq; }\n"
      "  d0@na := 2;\n"
      "  return 0;\n"
      "}\n"
      "thread {\n"
      "  p := ptr@acq;\n"
      "  if (p == 1) { v := d1@na; } else { v := d0@na; }\n"
      "  rq@rel := 1;\n"
      "  return v;\n"
      "}\n";
  add({"rw-rcu",
       "RMC case study: rculist_*.hpp (read/publish/retire slice)",
       "rcu", Rcu,
       /*MustInclude=*/{"ret(0,0)", "ret(0,1)"},
       /*MustExclude=*/{"ret(0,2)", "ret(0,undef)", "UB"},
       /*BadBehaviors=*/{},
       /*IsMutant=*/false, /*MutantOf=*/"", RaceVerdict::RaceFree,
       ValueDomain::ternary(), Std});

  // Mutant: the writer retires without waiting for quiescence — the
  // classic RCU bug. The reader's old-cell read races with the retire.
  const char *RcuEarly = "na d0, d1; atomic ptr, rq;\n"
                         "thread {\n"
                         "  d1@na := 1; ptr@rel := 1;\n"
                         "  d0@na := 2;\n"
                         "  return 0;\n"
                         "}\n"
                         "thread {\n"
                         "  p := ptr@acq;\n"
                         "  if (p == 1) { v := d1@na; } else { v := d0@na; }\n"
                         "  rq@rel := 1;\n"
                         "  return v;\n"
                         "}\n";
  add({"rw-rcu-early-retire",
       "rw-rcu with the quiescence wait deleted before the retire",
       "rcu", RcuEarly,
       /*MustInclude=*/{"ret(0,1)", "ret(0,undef)", "ret(0,2)"},
       /*MustExclude=*/{"UB"},
       /*BadBehaviors=*/{"ret(0,undef)", "ret(0,2)"},
       /*IsMutant=*/true, "rw-rcu", RaceVerdict::PotentiallyRacy,
       ValueDomain::ternary(), Std});

  //===--------------------------------------------------------------------===
  // Epoch-based-reclamation handshake (epoch_*.hpp): the reclaimer frees
  // the unlinked object only after every participant has release-signaled
  // that it left the epoch. Three threads — the multi-party barrier is
  // the point; forgetting one participant is the mutant.
  //===--------------------------------------------------------------------===
  const char *Epoch =
      "na obj; atomic ack1, ack2;\n"
      "thread {\n"
      "  a := ack1@acq; while (a != 1) { a := ack1@acq; }\n"
      "  b := ack2@acq; while (b != 1) { b := ack2@acq; }\n"
      "  obj@na := 2;\n"
      "  return 0;\n"
      "}\n"
      "thread { v := obj@na; ack1@rel := 1; return v; }\n"
      "thread { w := obj@na; ack2@rel := 1; return w; }\n";
  add({"rw-epoch",
       "RMC case study: epoch_*.hpp (reclamation handshake, 2 readers)",
       "epoch", Epoch,
       /*MustInclude=*/{"ret(0,0,0)"},
       /*MustExclude=*/
       {"ret(0,undef,0)", "ret(0,0,undef)", "ret(0,undef,undef)",
        "ret(0,2,0)", "ret(0,0,2)", "UB"},
       /*BadBehaviors=*/{},
       /*IsMutant=*/false, /*MutantOf=*/"", RaceVerdict::RaceFree,
       ValueDomain::ternary(), Std});

  // Mutant: the reclaimer forgets the second participant's ack — reader
  // 2's epoch read races with the free.
  const char *EpochSkip =
      "na obj; atomic ack1, ack2;\n"
      "thread {\n"
      "  a := ack1@acq; while (a != 1) { a := ack1@acq; }\n"
      "  obj@na := 2;\n"
      "  return 0;\n"
      "}\n"
      "thread { v := obj@na; ack1@rel := 1; return v; }\n"
      "thread { w := obj@na; ack2@rel := 1; return w; }\n";
  add({"rw-epoch-skip-ack",
       "rw-epoch with reader 2's ack wait deleted from the reclaimer",
       "epoch", EpochSkip,
       /*MustInclude=*/{"ret(0,0,0)", "ret(0,0,undef)", "ret(0,0,2)"},
       /*MustExclude=*/{"ret(0,undef,0)", "UB"},
       /*BadBehaviors=*/{"ret(0,0,undef)", "ret(0,0,2)"},
       /*IsMutant=*/true, "rw-epoch", RaceVerdict::PotentiallyRacy,
       ValueDomain::ternary(), Std});

  //===--------------------------------------------------------------------===
  // Seqlock / four-slot buffer (four_slot_sc.hpp): the writer bumps the
  // sequence odd, release-writes both data words, then release-publishes
  // the even sequence; the reader validates seq-before == seq-after ∧
  // even, else retries once and gives up (5 = retry sentinel). All
  // accesses atomic — the protocol's property is untearability, not
  // race-freedom.
  //===--------------------------------------------------------------------===
  const char *Seqlock = "atomic seq, d0, d1;\n"
                        "thread {\n"
                        "  seq@rlx := 1;\n"
                        "  d0@rel := 1; d1@rel := 1;\n"
                        "  seq@rel := 2;\n"
                        "  return 0;\n"
                        "}\n"
                        "thread {\n"
                        "  s1 := seq@acq;\n"
                        "  a := d0@acq; b := d1@acq;\n"
                        "  s2 := seq@acq;\n"
                        "  if (s1 == s2) {\n"
                        "    if (s1 == 1) { return 5; }\n"
                        "    return a * 10 + b;\n"
                        "  }\n"
                        "  return 5;\n"
                        "}\n";
  add({"rw-seqlock",
       "RMC case study: four_slot_sc.hpp (seqlock reader/writer pair)",
       "seqlock", Seqlock,
       /*MustInclude=*/{"ret(0,0)", "ret(0,11)", "ret(0,5)"},
       /*MustExclude=*/{"ret(0,1)", "ret(0,10)", "UB"},
       /*BadBehaviors=*/{},
       /*IsMutant=*/false, /*MutantOf=*/"", RaceVerdict::AtomicsOnly,
       ValueDomain::ternary(), Std});

  // Mutant: the data words are relaxed both sides — the sequence check
  // no longer orders them, and the reader returns torn snapshots.
  const char *SeqlockRlx = "atomic seq, d0, d1;\n"
                           "thread {\n"
                           "  seq@rlx := 1;\n"
                           "  d0@rlx := 1; d1@rlx := 1;\n"
                           "  seq@rel := 2;\n"
                           "  return 0;\n"
                           "}\n"
                           "thread {\n"
                           "  s1 := seq@acq;\n"
                           "  a := d0@rlx; b := d1@rlx;\n"
                           "  s2 := seq@acq;\n"
                           "  if (s1 == s2) {\n"
                           "    if (s1 == 1) { return 5; }\n"
                           "    return a * 10 + b;\n"
                           "  }\n"
                           "  return 5;\n"
                           "}\n";
  add({"rw-seqlock-rlx-data",
       "rw-seqlock with both data words weakened to rlx",
       "seqlock", SeqlockRlx,
       /*MustInclude=*/{"ret(0,0)", "ret(0,11)", "ret(0,5)", "ret(0,1)",
                        "ret(0,10)"},
       /*MustExclude=*/{"UB"},
       /*BadBehaviors=*/{"ret(0,1)", "ret(0,10)"},
       /*IsMutant=*/true, "rw-seqlock", RaceVerdict::AtomicsOnly,
       ValueDomain::ternary(), Std});

  //===--------------------------------------------------------------------===
  // Ticket lock (qspinlock slice): tickets from fadd(ns), turn-taking on
  // owner, a read-modify-write critical section on cnt, release unlock.
  // Mutual exclusion shows up as "no lost update": the outcomes are a
  // permutation of {0, 1}, never a repeat.
  //===--------------------------------------------------------------------===
  const char *TicketLock =
      "atomic ns, owner, cnt;\n"
      "thread {\n"
      "  t := fadd(ns, 1) @ rlx rlx;\n"
      "  o := owner@acq; while (o != t) { o := owner@acq; }\n"
      "  v := cnt@rlx; cnt@rlx := v + 1;\n"
      "  owner@rel := t + 1;\n"
      "  return v;\n"
      "}\n"
      "thread {\n"
      "  t := fadd(ns, 1) @ rlx rlx;\n"
      "  o := owner@acq; while (o != t) { o := owner@acq; }\n"
      "  v := cnt@rlx; cnt@rlx := v + 1;\n"
      "  owner@rel := t + 1;\n"
      "  return v;\n"
      "}\n";
  add({"rw-ticket-lock",
       "RMC case study: qspinlock (ticket lock over two contenders)",
       "ticket-lock", TicketLock,
       /*MustInclude=*/{"ret(0,1)", "ret(1,0)"},
       /*MustExclude=*/{"ret(0,0)", "ret(1,1)", "UB"},
       /*BadBehaviors=*/{},
       /*IsMutant=*/false, /*MutantOf=*/"", RaceVerdict::AtomicsOnly,
       ValueDomain::ternary(), Std});

  // Mutant: the unlock is relaxed — the successor acquires the lock but
  // not the critical section's writes, and the update is lost.
  const char *TicketLockRlx =
      "atomic ns, owner, cnt;\n"
      "thread {\n"
      "  t := fadd(ns, 1) @ rlx rlx;\n"
      "  o := owner@acq; while (o != t) { o := owner@acq; }\n"
      "  v := cnt@rlx; cnt@rlx := v + 1;\n"
      "  owner@rlx := t + 1;\n"
      "  return v;\n"
      "}\n"
      "thread {\n"
      "  t := fadd(ns, 1) @ rlx rlx;\n"
      "  o := owner@acq; while (o != t) { o := owner@acq; }\n"
      "  v := cnt@rlx; cnt@rlx := v + 1;\n"
      "  owner@rlx := t + 1;\n"
      "  return v;\n"
      "}\n";
  add({"rw-ticket-lock-rlx-unlock",
       "rw-ticket-lock with the owner@rel unlock weakened to rlx",
       "ticket-lock", TicketLockRlx,
       /*MustInclude=*/{"ret(0,1)", "ret(1,0)", "ret(0,0)"},
       /*MustExclude=*/{"UB"},
       /*BadBehaviors=*/{"ret(0,0)"},
       /*IsMutant=*/true, "rw-ticket-lock", RaceVerdict::AtomicsOnly,
       ValueDomain::ternary(), Std});

  //===--------------------------------------------------------------------===
  // Futex-style condvar (futex wait/wake): the waker stores the payload
  // and release-writes the futex word; the waiter polls twice (a bounded
  // futex_wait with timeout) and reads the payload only under an observed
  // wake, else reports the timeout (5).
  //===--------------------------------------------------------------------===
  const char *Futex = "na data; atomic futex;\n"
                      "thread {\n"
                      "  data@na := 1;\n"
                      "  futex@rel := 1;\n"
                      "  return 0;\n"
                      "}\n"
                      "thread {\n"
                      "  f := futex@acq;\n"
                      "  if (f == 1) { v := data@na; return v; }\n"
                      "  f := futex@acq;\n"
                      "  if (f == 1) { v := data@na; return v; }\n"
                      "  return 5;\n"
                      "}\n";
  add({"rw-futex",
       "RMC case study: futex-based condvar (wait/wake with timeout)",
       "futex", Futex,
       /*MustInclude=*/{"ret(0,1)", "ret(0,5)"},
       /*MustExclude=*/{"ret(0,0)", "ret(0,undef)", "UB"},
       /*BadBehaviors=*/{},
       /*IsMutant=*/false, /*MutantOf=*/"", RaceVerdict::RaceFree,
       ValueDomain::ternary(), Std});

  // Mutant: the wake is relaxed — the waiter observes the futex word but
  // not the payload store, and the guarded read races.
  const char *FutexRlx = "na data; atomic futex;\n"
                         "thread {\n"
                         "  data@na := 1;\n"
                         "  futex@rlx := 1;\n"
                         "  return 0;\n"
                         "}\n"
                         "thread {\n"
                         "  f := futex@acq;\n"
                         "  if (f == 1) { v := data@na; return v; }\n"
                         "  f := futex@acq;\n"
                         "  if (f == 1) { v := data@na; return v; }\n"
                         "  return 5;\n"
                         "}\n";
  add({"rw-futex-rlx-wake",
       "rw-futex with the futex@rel wake weakened to rlx",
       "futex", FutexRlx,
       /*MustInclude=*/{"ret(0,1)", "ret(0,5)", "ret(0,undef)"},
       /*MustExclude=*/{"UB"},
       /*BadBehaviors=*/{"ret(0,undef)"},
       /*IsMutant=*/true, "rw-futex", RaceVerdict::PotentiallyRacy,
       ValueDomain::ternary(), Std});

  return C;
}

} // namespace

const std::vector<RealWorldCase> &pseq::realWorldCorpus() {
  static const std::vector<RealWorldCase> *Corpus =
      new std::vector<RealWorldCase>(buildRealWorld());
  return *Corpus;
}

const RealWorldCase *pseq::realWorldCaseByNameMaybe(const std::string &Name) {
  for (const RealWorldCase &RC : realWorldCorpus())
    if (RC.Name == Name)
      return &RC;
  return nullptr;
}

const RealWorldCase &pseq::realWorldCaseByName(const std::string &Name) {
  if (const RealWorldCase *RC = realWorldCaseByNameMaybe(Name))
    return *RC;
  std::fprintf(stderr, "unknown realworld case '%s'\n", Name.c_str());
  std::abort();
}

PsConfig pseq::realWorldPsConfig(const RealWorldCase &RC) {
  PsConfig Cfg;
  Cfg.Domain = RC.Domain;
  Cfg.PromiseBudget = RC.Budgets.PromiseBudget;
  Cfg.SplitBudget = RC.Budgets.SplitBudget;
  Cfg.CertNodeBudget = RC.Budgets.CertNodeBudget;
  Cfg.MaxStates = RC.Budgets.MaxStates;
  return Cfg;
}

void pseq::applyRealWorldGuardBudgets(guard::ResourceGuard &G,
                                      const RealWorldCase &RC) {
  if (RC.Budgets.DeadlineMs)
    G.setDeadlineInMs(RC.Budgets.DeadlineMs);
  if (RC.Budgets.MemMb)
    G.setMemLimitBytes(RC.Budgets.MemMb << 20);
}

RealWorldRunResult pseq::runRealWorldCase(const RealWorldCase &RC,
                                          const RealWorldRunOptions &Opts) {
  RealWorldRunResult R;
  std::unique_ptr<Program> P = parseOrDie(RC.Text);
  PsConfig Cfg = realWorldPsConfig(RC);
  Cfg.NumThreads = Opts.NumThreads;
  Cfg.Lint = Opts.Lint;
  Cfg.Telem = Opts.Telem;
  Cfg.Guard = Opts.Guard;
  Cfg.Memo = Opts.Memo;
  R.Behaviors = explorePsna(*P, Cfg);

  R.LintMatches = !Opts.Lint || (R.Behaviors.Lint &&
                                 *R.Behaviors.Lint == RC.ExpectedLint);
  // A truncated exploration proves neither inclusions nor exclusions:
  // leave the annotation lists empty and let clean() fail on truncated().
  if (!R.Behaviors.truncated()) {
    for (const std::string &S : RC.MustInclude)
      if (!R.Behaviors.containsStr(S))
        R.MissingIncludes.push_back(S);
    for (const std::string &S : RC.MustExclude)
      if (R.Behaviors.containsStr(S))
        R.ForbiddenSeen.push_back(S);
    for (const std::string &S : RC.BadBehaviors)
      if (!R.Behaviors.containsStr(S))
        R.MissingBad.push_back(S);
  }

  // Every key is added on every run, zero deltas included, so a clean
  // corpus run still reports annotation_failures=0 and truncated=0 for
  // the baseline gate to read.
  if (obs::Telemetry *T = Opts.Telem) {
    obs::Stats &C = T->Counters;
    C.add("realworld.cases_run");
    C.add("realworld.protocols_run", !RC.IsMutant);
    C.add("realworld.mutants_run", RC.IsMutant);
    C.add("realworld.bad_exhibited", RC.IsMutant && R.MissingBad.empty() &&
                                         !R.Behaviors.truncated());
    C.add("realworld.states", R.Behaviors.StatesExplored);
    C.add("realworld.annotation_failures",
          !R.MissingIncludes.empty() || !R.ForbiddenSeen.empty() ||
              !R.MissingBad.empty() || !R.LintMatches);
    C.add("realworld.truncated", R.Behaviors.truncated());
  }
  return R;
}

//===- psna/Machine.cpp - PS^na machine transitions -----------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "psna/Machine.h"

#include "obs/Telemetry.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>

using namespace pseq;

//===----------------------------------------------------------------------===
// PsMachineState
//===----------------------------------------------------------------------===

PsMachineState::ThreadPtr PsMachineState::makeThread(PsThread T) {
  uint64_t H = T.hash();
  return std::allocate_shared<const SharedThread>(
      PoolAllocator<SharedThread>(), SharedThread{std::move(T), H});
}

void PsMachineState::setThread(unsigned Tid, PsThread T) {
  assert(Tid <= Threads.size() && "thread out of range");
  ThreadPtr Shared = makeThread(std::move(T));
  if (Tid == Threads.size())
    Threads.push_back(std::move(Shared));
  else
    Threads[Tid] = std::move(Shared);
}

bool PsMachineState::allDone() const {
  if (Bottom)
    return false;
  for (const ThreadPtr &T : Threads)
    if (!T->T.Prog.isDone())
      return false;
  return true;
}

bool PsMachineState::operator==(const PsMachineState &O) const {
  if (Bottom != O.Bottom || Outs != O.Outs ||
      Threads.size() != O.Threads.size())
    return false;
  for (size_t I = 0, E = Threads.size(); I != E; ++I) {
    const SharedThread &A = *Threads[I], &B = *O.Threads[I];
    if (&A != &B && (A.Hash != B.Hash || !(A.T == B.T)))
      return false;
  }
  return Mem == O.Mem;
}

uint64_t PsMachineState::hash() const {
  uint64_t H = Bottom ? 0xb0770bULL : 1;
  H = hashCombine(H, Outs.size());
  for (Value V : Outs)
    H = hashCombine(H, V.hash());
  for (const ThreadPtr &T : Threads)
    H = hashCombine(H, T->Hash);
  H = hashCombine(H, Mem.hash());
  return H;
}

std::string PsMachineState::str() const {
  std::string Out = Bottom ? "BOTTOM " : "";
  for (unsigned I = 0, E = numThreads(); I != E; ++I) {
    const PsThread &T = thread(I);
    Out += "T" + std::to_string(I) + "(";
    switch (T.Prog.status()) {
    case ProgState::Status::Running:
      Out += "pc=" + std::to_string(T.Prog.pc());
      break;
    case ProgState::Status::Done:
      Out += "ret=" + T.Prog.retVal().str();
      break;
    case ProgState::Status::Error:
      Out += "bot";
      break;
    }
    Out += " V=" + T.V.str() + " |P|=" + std::to_string(T.Promises.size()) +
           ") ";
  }
  Out += "M: " + Mem.str();
  return Out;
}

void PsMachineState::rerank(unsigned Loc) {
  // The location's endpoints 0 = init.To ≤ From_1 < To_1 ≤ From_2 < ... are
  // already sorted (messages are kept sorted by To and pairwise disjoint),
  // so the rank table is their deduplicated sequence. Every view entry and
  // promise id at Loc is some message's To, so the table holds every
  // timestamp the state mentions there. The table is per-thread scratch:
  // reusing its capacity keeps re-ranking allocation-free.
  static thread_local std::vector<Rational> Ts;
  Ts.clear();
  Ts.push_back(Rational(0));
  for (const PsMessage &M : Mem.msgs(Loc))
    for (const Rational &T : {M.From, M.To}) {
      assert(Ts.back() <= T && "message endpoints out of order");
      if (Ts.back() != T)
        Ts.push_back(T);
    }

  // A timestamp's rank is its index in the table. Endpoints below the
  // first one whose value differs from its rank keep their value, so only
  // timestamps from Lo up can move.
  size_t First = 0;
  while (First != Ts.size() && Ts[First] == Rational(int64_t(First)))
    ++First;
  if (First == Ts.size())
    return;
  const Rational Lo = Ts[First];
  auto rank = [](const Rational &T) {
    auto It = std::lower_bound(Ts.begin(), Ts.end(), T);
    assert(It != Ts.end() && *It == T && "timestamp is no message endpoint");
    return Rational(static_cast<int64_t>(It - Ts.begin()));
  };
  auto moves = [&](const Rational &T) { return Lo <= T && rank(T) != T; };
  auto viewMoves = [&](const MsgView &V) {
    return V.has_value() && moves(V->get(Loc));
  };

  // The renaming is strictly monotone, so renaming in place keeps every
  // message list sorted and disjoint and every promise list sorted. A list
  // or thread is rewritten only when one of its entries at Loc moves.
  for (unsigned L = 0, E = Mem.numLocs(); L != E; ++L) {
    const MsgVec &Ms = Mem.msgs(L);
    bool Dirty = false;
    for (const PsMessage &M : Ms)
      Dirty |= (L == Loc && (moves(M.From) || moves(M.To))) ||
               viewMoves(M.MView);
    if (!Dirty)
      continue;
    Mem.update(L, [&](MsgVec &Ms) {
      for (PsMessage &M : Ms) {
        if (L == Loc) {
          M.From = rank(M.From);
          M.To = rank(M.To);
        }
        if (M.MView.has_value())
          M.MView->set(Loc, rank(M.MView->get(Loc)));
      }
    });
  }
  for (unsigned Tid = 0, E = numThreads(); Tid != E; ++Tid) {
    const PsThread &T = thread(Tid);
    bool Dirty = moves(T.V.get(Loc));
    for (const MsgId &Id : T.Promises)
      Dirty |= Id.Loc == Loc && moves(Id.To);
    if (!Dirty)
      continue;
    PsThread NT = T;
    NT.V.set(Loc, rank(NT.V.get(Loc)));
    for (MsgId &Id : NT.Promises)
      if (Id.Loc == Loc)
        Id.To = rank(Id.To);
    setThread(Tid, std::move(NT));
  }
}

void PsMachineState::normalize() {
  for (unsigned Loc = 0, E = Mem.numLocs(); Loc != E; ++Loc)
    rerank(Loc);
}

PsMachineState PsMachineState::project(unsigned Tid) const {
  PsMachineState R;
  R.Mem = Mem;
  PsThread Blank;
  Blank.V = View::zero(Mem.numLocs());
  R.Threads.assign(Threads.size(), makeThread(std::move(Blank)));
  R.Threads[Tid] = Threads[Tid];
  return R;
}

//===----------------------------------------------------------------------===
// PsMachine
//===----------------------------------------------------------------------===

PsMachine::PsMachine(const Program &Prog, PsConfig Cfg)
    : Prog(Prog), Cfg(Cfg) {
  // Promises are only useful for locations a thread can later write.
  for (unsigned T = 0, E = Prog.numThreads(); T != E; ++T) {
    AccessSummary Sum = Prog.accessSummary(T);
    Writable.push_back(Sum.NaWritten.unionWith(Sum.AtomicAccessed).members());
  }
  for (int64_t V : Cfg.Domain.values())
    ReadVals.push_back(Value::of(V));
  ReadVals.push_back(Value::undef());
}

PsMachineState PsMachine::initialState() const {
  PsMachineState S;
  S.Mem = PsMemory::initial(Prog.numLocs());
  for (unsigned T = 0, E = Prog.numThreads(); T != E; ++T) {
    PsThread Th;
    Th.Prog = ProgState::initial(Prog, T);
    Th.V = View::zero(Prog.numLocs());
    S.setThread(T, std::move(Th));
  }
  return S;
}

void PsMachine::insertMessage(PsMachineState &S, const PsMessage &M) const {
  S.Mem.insert(M);
  if (Cfg.Normalize)
    S.rerank(M.Loc);
}

bool PsMachine::isRacy(const PsMachineState &S, unsigned Tid, unsigned Loc,
                       bool AtomicAccess) const {
  const PsThread &T = S.thread(Tid);
  for (const PsMessage &M : S.Mem.msgs(Loc)) {
    if (!(T.V.get(Loc) < M.To))
      continue;
    if (T.hasPromise(MsgId{Loc, M.To}))
      continue; // m ∈ M \ P: own promises do not race
    if (AtomicAccess && !M.Valueless)
      continue; // o ≠ na ⇒ m ∈ NAMsg
    return true;
  }
  return false;
}

namespace {

/// (racy-write)/(fail) side condition: ∀m ∈ P. V(m.loc) < m.t.
bool canFail(const PsThread &T) {
  for (const MsgId &Id : T.Promises)
    if (!(T.V.get(Id.Loc) < Id.To))
      return false;
  return true;
}

/// \p S with thread \p Tid replaced by \p T, sharing everything else.
PsMachineState withThread(const PsMachineState &S, unsigned Tid, PsThread T) {
  PsMachineState Next = S;
  Next.setThread(Tid, std::move(T));
  return Next;
}

} // namespace

void PsMachine::stepFail(const PsMachineState &S, unsigned Tid,
                         PsStates &Out) const {
  if (!canFail(S.thread(Tid)))
    return;
  PsThread NT = S.thread(Tid);
  NT.Prog.setError();
  PsMachineState Next = withThread(S, Tid, std::move(NT));
  Next.Bottom = true;
  Out.push_back(std::move(Next));
}

void PsMachine::stepRead(const PsMachineState &S, unsigned Tid,
                         const ProgState::Pending &Pend, PsStates &Out,
                         bool ForCertification) const {
  const PsThread &T = S.thread(Tid);
  unsigned X = Pend.Loc;
  bool Acq = Pend.RM == ReadMode::ACQ;

  // (read): any valued message at or above the view.
  for (const PsMessage &M : S.Mem.msgs(X)) {
    if (M.Valueless || M.To < T.V.get(X))
      continue;
    PsThread NT = T;
    NT.Prog.applyRead(Prog, Tid, M.V);
    View NV = NT.V.joined(View::single(Prog.numLocs(), X, M.To));
    if (Acq)
      NV = joinMsgView(NV, M.MView);
    NT.V = NV;
    Out.push_back(withThread(S, Tid, std::move(NT)));
  }

  // (racy-read): read undef without moving the view.
  if (isRacy(S, Tid, X, Pend.RM != ReadMode::NA)) {
    if (!ForCertification)
      ++RaceStepCount;
    PsThread NT = T;
    NT.Prog.applyRead(Prog, Tid, Value::undef());
    Out.push_back(withThread(S, Tid, std::move(NT)));
  }
}

void PsMachine::stepWrite(const PsMachineState &S, unsigned Tid,
                          const ProgState::Pending &Pend, PsStates &Out,
                          bool ForCertification) const {
  const PsThread &T = S.thread(Tid);
  unsigned X = Pend.Loc;
  Value V = Pend.WVal;
  Rational Vx = T.V.get(X);

  // (racy-write): UB when racing.
  if (isRacy(S, Tid, X, Pend.WM != WriteMode::NA)) {
    if (!ForCertification)
      ++RaceStepCount;
    stepFail(S, Tid, Out);
  }

  auto emit = [&](Rational NewTo, const MsgIds &Fulfilled,
                  std::optional<PsMessage> NewMsg) {
    PsThread NT = T;
    NT.Prog.applyWrite(Prog, Tid);
    NT.V.set(X, NewTo);
    for (const MsgId &Id : Fulfilled)
      NT.removePromise(Id);
    PsMachineState Next = withThread(S, Tid, std::move(NT));
    if (NewMsg.has_value())
      insertMessage(Next, *NewMsg);
    Out.push_back(std::move(Next));
  };

  switch (Pend.WM) {
  case WriteMode::NA: {
    // Own ⊥-view promises at x above the view are candidates for
    // fulfillment — either as the final message (matching value) or as
    // extra "split" messages below it (memory: na-write, Appendix B).
    PoolVector<const PsMessage *> Cands;
    for (const MsgId &Id : T.Promises) {
      if (Id.Loc != X || !(Vx < Id.To))
        continue;
      const PsMessage *M = S.Mem.find(Id);
      assert(M && "promise without a message");
      if (M->MView.has_value())
        continue; // na-write messages all carry view ⊥
      Cands.push_back(M);
    }
    // Enumerate subsets of candidates to fulfill as splits (≤ SplitBudget).
    unsigned N = static_cast<unsigned>(Cands.size());
    for (uint64_t Mask = 0; Mask < (uint64_t(1) << N); ++Mask) {
      if (static_cast<unsigned>(__builtin_popcountll(Mask)) >
          Cfg.SplitBudget)
        continue;
      Rational MaxSplit = Vx;
      MsgIds Splits;
      for (unsigned I = 0; I != N; ++I) {
        if (!((Mask >> I) & 1))
          continue;
        Splits.push_back(MsgId{X, Cands[I]->To});
        if (MaxSplit < Cands[I]->To)
          MaxSplit = Cands[I]->To;
      }
      // Final message: fresh slot above every split...
      for (const TimeSlot &Slot : S.Mem.slotsAbove(X, MaxSplit)) {
        PsMessage M;
        M.Loc = X;
        M.From = Slot.From;
        M.To = Slot.To;
        M.V = V;
        M.MView = std::nullopt;
        emit(Slot.To, Splits, M);
      }
      // ... or fulfillment of a further ⊥-view promise with equal value.
      for (unsigned I = 0; I != N; ++I) {
        if ((Mask >> I) & 1)
          continue;
        const PsMessage *M = Cands[I];
        if (M->Valueless || M->V != V || !(MaxSplit < M->To))
          continue;
        MsgIds All = Splits;
        All.push_back(MsgId{X, M->To});
        emit(M->To, All, std::nullopt);
      }
    }
    return;
  }
  case WriteMode::RLX: {
    for (const TimeSlot &Slot : S.Mem.slotsAbove(X, Vx)) {
      PsMessage M;
      M.Loc = X;
      M.From = Slot.From;
      M.To = Slot.To;
      M.V = V;
      M.MView = View::single(Prog.numLocs(), X, Slot.To);
      emit(Slot.To, {}, M);
    }
    // (memory: fulfill) of an own promise with matching content.
    for (const MsgId &Id : T.Promises) {
      if (Id.Loc != X || !(Vx < Id.To))
        continue;
      const PsMessage *M = S.Mem.find(Id);
      if (M->Valueless || M->V != V)
        continue;
      if (M->MView != MsgView(View::single(Prog.numLocs(), X, Id.To)))
        continue;
      emit(Id.To, {Id}, std::nullopt);
    }
    return;
  }
  case WriteMode::REL: {
    // ∀m ∈ P|Msg_x: m.view = ⊥ — outstanding valued promises to x with a
    // non-⊥ view block the release.
    for (const MsgId &Id : T.Promises) {
      if (Id.Loc != X)
        continue;
      const PsMessage *M = S.Mem.find(Id);
      if (!M->Valueless && M->MView.has_value())
        return;
    }
    for (const TimeSlot &Slot : S.Mem.slotsAbove(X, Vx)) {
      PsMessage M;
      M.Loc = X;
      M.From = Slot.From;
      M.To = Slot.To;
      M.V = V;
      View NV = T.V;
      NV.set(X, Slot.To);
      M.MView = NV;
      emit(Slot.To, {}, M);
    }
    return;
  }
  }
}

void PsMachine::stepRmw(const PsMachineState &S, unsigned Tid,
                        const ProgState::Pending &Pend, PsStates &Out,
                        bool ForCertification) const {
  const PsThread &T = S.thread(Tid);
  unsigned X = Pend.Loc;
  bool Acq = Pend.RM == ReadMode::ACQ;

  auto finish = [&](PsThread NT, bool DoesWrite, Value NewVal,
                    View ReadView, Rational ReadTo, bool Adjacent) {
    if (NT.Prog.isError()) {
      // CAS comparison on undef: UB (subject to the fail condition).
      if (!canFail(T))
        return;
      PsMachineState Next = withThread(S, Tid, std::move(NT));
      Next.Bottom = true;
      Out.push_back(std::move(Next));
      return;
    }
    if (!DoesWrite) {
      NT.V = ReadView;
      Out.push_back(withThread(S, Tid, std::move(NT)));
      return;
    }
    // PS2.1 certifies against *capped* memory: the slot adjacent to a
    // location's top message is closed during certification (a thread may
    // not justify a promise by assuming it wins a future RMW race; doing
    // so requires a reservation, which we do not model). Successful
    // updates are therefore disabled in certification runs — this is what
    // makes lock-protected code promise-robust (DRF guarantees, §5).
    if (Adjacent && ForCertification)
      return;
    SlotVec Slots;
    if (Adjacent) {
      std::optional<TimeSlot> Slot = S.Mem.adjacentSlot(X, ReadTo);
      if (!Slot.has_value())
        return; // another message is attached: this update is blocked
      Slots.push_back(*Slot);
    } else {
      Slots = S.Mem.slotsAbove(X, ReadView.get(X));
    }
    for (const TimeSlot &Slot : Slots) {
      PsThread CT = NT;
      View NV = ReadView;
      NV.set(X, Slot.To);
      PsMessage M;
      M.Loc = X;
      M.From = Slot.From;
      M.To = Slot.To;
      M.V = NewVal;
      M.MView = Pend.WM == WriteMode::REL
                    ? MsgView(NV)
                    : MsgView(View::single(Prog.numLocs(), X, Slot.To));
      CT.V = NV;
      PsMachineState Cand = withThread(S, Tid, std::move(CT));
      insertMessage(Cand, M);
      Out.push_back(std::move(Cand));
    }
  };

  // Release-mode updates are blocked by non-⊥-view promises to x, like
  // release writes.
  if (Pend.WM == WriteMode::REL) {
    for (const MsgId &Id : T.Promises) {
      if (Id.Loc != X)
        continue;
      const PsMessage *M = S.Mem.find(Id);
      if (!M->Valueless && M->MView.has_value())
        return;
    }
  }

  for (const PsMessage &M : S.Mem.msgs(X)) {
    if (M.Valueless || M.To < T.V.get(X))
      continue;
    PsThread NT = T;
    bool DoesWrite = false;
    Value NewVal;
    NT.Prog.applyRmw(Prog, Tid, M.V, DoesWrite, NewVal);
    View RV = T.V.joined(View::single(Prog.numLocs(), X, M.To));
    if (Acq)
      RV = joinMsgView(RV, M.MView);
    finish(std::move(NT), DoesWrite, NewVal, RV, M.To,
           /*Adjacent=*/true);
  }

  // Racy update: read undef (no adjacency; no view gain from the read).
  if (isRacy(S, Tid, X, /*AtomicAccess=*/true)) {
    if (!ForCertification)
      ++RaceStepCount;
    PsThread NT = T;
    bool DoesWrite = false;
    Value NewVal;
    NT.Prog.applyRmw(Prog, Tid, Value::undef(), DoesWrite, NewVal);
    finish(std::move(NT), DoesWrite, NewVal, T.V, Rational(0),
           /*Adjacent=*/false);
  }
}

void PsMachine::stepPromise(const PsMachineState &S, unsigned Tid,
                            PsStates &Out) const {
  const PsThread &T = S.thread(Tid);
  if (T.Promises.size() >= Cfg.PromiseBudget)
    return;

  for (unsigned X : Writable[Tid]) {
    bool Atomic = Prog.isAtomicLoc(X);
    for (const TimeSlot &Slot : S.Mem.slotsAbove(X, T.V.get(X))) {
      auto emit = [&](PsMessage M) {
        M.Loc = X;
        M.From = Slot.From;
        M.To = Slot.To;
        PsThread NT = T;
        NT.addPromise(MsgId{X, Slot.To});
        PsMachineState Next = withThread(S, Tid, std::move(NT));
        insertMessage(Next, M);
        Out.push_back(std::move(Next));
      };
      if (Atomic) {
        for (Value V : ReadVals) {
          PsMessage M;
          M.V = V;
          M.MView = View::single(Prog.numLocs(), X, Slot.To);
          emit(M);
        }
      } else {
        for (Value V : ReadVals) {
          PsMessage M;
          M.V = V;
          M.MView = std::nullopt;
          emit(M);
        }
        if (!Cfg.SkipNaMarkers) {
          ++NaMarkerCount;
          PsMessage NaMarker;
          NaMarker.Valueless = true;
          NaMarker.MView = std::nullopt;
          emit(NaMarker);
        }
      }
    }
  }
}

void PsMachine::stepLower(const PsMachineState &S, unsigned Tid,
                          PsStates &Out) const {
  // (lower): replace an own promise ⟨x@t, v, V⟩ by ⟨x@t, v', V'⟩ with
  // v ⊑ v' and V' ⊑ V — i.e. raise the value to undef and/or drop the
  // view to ⊥.
  for (const MsgId &Id : S.thread(Tid).Promises) {
    const PsMessage *M = S.Mem.find(Id);
    assert(M && "promise without a message");
    if (M->Valueless)
      continue;
    bool CanUndef = !M->V.isUndef();
    bool CanBot = M->MView.has_value();
    for (int Mask = 1; Mask < 4; ++Mask) {
      bool DoUndef = Mask & 1;
      bool DoBot = Mask & 2;
      if ((DoUndef && !CanUndef) || (DoBot && !CanBot))
        continue;
      // No endpoint moves, so the successor stays normalized.
      PsMachineState Next = S;
      Next.Mem.update(Id.Loc, [&](MsgVec &Ms) {
        for (PsMessage &NM : Ms) {
          if (NM.To != Id.To)
            continue;
          if (DoUndef)
            NM.V = Value::undef();
          if (DoBot)
            NM.MView = std::nullopt;
        }
      });
      Out.push_back(std::move(Next));
    }
  }
}

PsStates PsMachine::microSteps(const PsMachineState &S, unsigned Tid,
                               bool ForCertification) const {
  PsStates Out;
  const PsThread &T = S.thread(Tid);
  if (S.Bottom || T.Prog.status() != ProgState::Status::Running)
    return Out;

  ProgState::Pending Pend = T.Prog.pending(Prog, Tid);
  switch (Pend.K) {
  case ProgState::Pending::Kind::Silent: {
    PsThread NT = T;
    NT.Prog.applySilent(Prog, Tid);
    Out.push_back(withThread(S, Tid, std::move(NT)));
    break;
  }
  case ProgState::Pending::Kind::Fail:
    stepFail(S, Tid, Out);
    break;
  case ProgState::Pending::Kind::Choose: {
    for (int64_t V : Cfg.Domain.values()) {
      PsThread NT = T;
      NT.Prog.applyChoose(Prog, Tid, Value::of(V));
      Out.push_back(withThread(S, Tid, std::move(NT)));
    }
    break;
  }
  case ProgState::Pending::Kind::Read:
    stepRead(S, Tid, Pend, Out, ForCertification);
    break;
  case ProgState::Pending::Kind::Write:
    stepWrite(S, Tid, Pend, Out, ForCertification);
    break;
  case ProgState::Pending::Kind::Rmw:
    stepRmw(S, Tid, Pend, Out, ForCertification);
    break;
  case ProgState::Pending::Kind::Fence: {
    // Single-view approximation (see header): an acquire fence is a no-op
    // on the state; a release fence requires all valued promises to carry
    // view ⊥ (the per-location release condition, globalized).
    if (Pend.FM == FenceMode::REL) {
      for (const MsgId &Id : S.thread(Tid).Promises) {
        const PsMessage *M = S.Mem.find(Id);
        if (!M->Valueless && M->MView.has_value())
          return Out;
      }
    }
    PsThread NT = T;
    NT.Prog.applyFence(Prog, Tid);
    Out.push_back(withThread(S, Tid, std::move(NT)));
    break;
  }
  case ProgState::Pending::Kind::Print: {
    PsThread NT = T;
    NT.Prog.applyPrint(Prog, Tid);
    PsMachineState Next = withThread(S, Tid, std::move(NT));
    Next.Outs.push_back(Pend.WVal);
    Out.push_back(std::move(Next));
    break;
  }
  }

  if (!ForCertification)
    stepPromise(S, Tid, Out);
  stepLower(S, Tid, Out);
  return Out;
}

memo::Fp128 PsMachine::certKey(const PsMachineState &S, unsigned Tid) {
  memo::Fp128 F = memo::fpSeed(/*Tag=*/0x70736372 /* "pscr" */);
  memo::fpMix(F, Tid);
  memo::fpMix(F, S.threadHash(Tid));
  memo::fpMix(F, S.Mem.hash());
  return F;
}

bool PsMachine::certifiable(const PsMachineState &S, unsigned Tid) const {
  if (S.thread(Tid).Promises.empty())
    return true;
  memo::Fp128 Key = certKey(S, Tid);
  auto lookup = [&Key](const CertTable &T) -> const CertVerdict * {
    auto It = T.find(Key);
    return It == T.end() ? nullptr : &It->second;
  };
  const CertVerdict *Known = Table ? lookup(*Table) : nullptr;
  if (!Known)
    Known = lookup(Pending);
  if (Known) {
    if (Cfg.Telem)
      Cfg.Telem->Counters.add("psna.cert.table_hits", 1);
    CertBudgetHit |= Known->BudgetHit;
    return Known->Ok;
  }
  CertVerdict V = searchCertification(S, Tid);
  CertBudgetHit |= V.BudgetHit;
  Pending.emplace(Key, V);
  return V.Ok;
}

CertVerdict PsMachine::searchCertification(const PsMachineState &S,
                                           unsigned Tid) const {
  obs::ScopedSpan Span(Cfg.Telem ? Cfg.Telem->Spans : nullptr, "psna.cert");
  obs::ScopedTally Tally(Cfg.Telem ? &Cfg.Telem->Counters : nullptr);
  uint64_t &Searches = Tally.slot("psna.cert.searches");
  uint64_t &Nodes = Tally.slot("psna.cert.nodes");
  uint64_t &BudgetHits = Tally.slot("psna.cert.budget_hits");
  ++Searches;
  // The other threads never move during the search, so blanking them (and
  // the outputs) maps the full search one-to-one onto the search from the
  // projection, whose verdict depends on the key alone.
  PsMachineState Root = S.project(Tid);
  // Depth-first search over thread-local futures. Each state lives once,
  // in Visited (whose elements never move); the stack points into it.
  PsStateSet Visited;
  PoolVector<const PsMachineState *> Stack;
  Stack.push_back(&*Visited.insert(std::move(Root)).first);
  unsigned Budget = Cfg.CertNodeBudget;
  while (!Stack.empty()) {
    if (Budget-- == 0) {
      ++BudgetHits;
      return {/*Ok=*/false, /*BudgetHit=*/true};
    }
    ++Nodes;
    const PsMachineState &Cur = *Stack.back();
    Stack.pop_back();
    if (Cur.thread(Tid).Promises.empty())
      return {/*Ok=*/true, /*BudgetHit=*/false};
    if (Cur.Bottom)
      continue;
    for (PsMachineState &Next : microSteps(Cur, Tid,
                                           /*ForCertification=*/true)) {
      if (Next.thread(Tid).Promises.empty())
        return {/*Ok=*/true, /*BudgetHit=*/false};
      auto [It, Inserted] = Visited.insert(std::move(Next));
      if (Inserted)
        Stack.push_back(&*It);
    }
  }
  // Exhausted within budget: every successor of a visited state was
  // visited and none fulfilled the promises. A search rooted at any
  // visited state explores a subset of Visited, so it fails the same way
  // without running out of budget; each one's verdict is known exactly.
  // (States on a successful path get no entry: a search from one of them
  // may run out of budget before it finds the success.)
  // Keys the frozen table already holds are known and are not queued again.
  constexpr CertVerdict Fails{/*Ok=*/false, /*BudgetHit=*/false};
  for (const PsMachineState &X : Visited) {
    memo::Fp128 Key = certKey(X, Tid);
    if (!Table || !Table->count(Key))
      Pending.emplace(Key, Fails);
  }
  return Fails;
}

PsStates PsMachine::threadSuccessors(const PsMachineState &S,
                                     unsigned Tid) const {
  PsStates Out;
  for (PsMachineState &Next : microSteps(S, Tid, /*ForCertification=*/false)) {
    if (Next.Bottom) {
      Out.push_back(std::move(Next)); // (machine: failure) — no cert
      continue;
    }
    if (certifiable(Next, Tid))
      Out.push_back(std::move(Next));
  }
  return Out;
}

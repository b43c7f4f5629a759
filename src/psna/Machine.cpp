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
#include <unordered_set>

using namespace pseq;

//===----------------------------------------------------------------------===
// PsMachineState
//===----------------------------------------------------------------------===

bool PsMachineState::allDone() const {
  if (Bottom)
    return false;
  for (const PsThread &T : Threads)
    if (!T.Prog.isDone())
      return false;
  return true;
}

bool PsMachineState::operator==(const PsMachineState &O) const {
  return Bottom == O.Bottom && Outs == O.Outs && Threads == O.Threads &&
         Mem == O.Mem;
}

uint64_t PsMachineState::hash() const {
  uint64_t H = Bottom ? 0xb0770bULL : 1;
  H = hashCombine(H, Outs.size());
  for (Value V : Outs)
    H = hashCombine(H, V.hash());
  for (const PsThread &T : Threads)
    H = hashCombine(H, T.hash());
  H = hashCombine(H, Mem.hash());
  return H;
}

std::string PsMachineState::str() const {
  std::string Out = Bottom ? "BOTTOM " : "";
  for (size_t I = 0, E = Threads.size(); I != E; ++I) {
    const PsThread &T = Threads[I];
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

void PsMachineState::normalize() {
  unsigned NumLocs = Mem.numLocs();

  // Per location, the memory's endpoints 0 = init.To ≤ From_1 < To_1 ≤
  // From_2 < ... are already sorted (messages are kept sorted by To and
  // pairwise disjoint), so the rank table is their deduplicated sequence.
  // Every view entry and promise id is some message's To, so the table
  // holds every timestamp the state mentions. The tables are per-thread
  // scratch: normalize runs once per generated state, and reusing their
  // capacity keeps it allocation-free.
  static thread_local std::vector<std::vector<Rational>> Times;
  if (Times.size() < NumLocs)
    Times.resize(NumLocs);
  for (unsigned Loc = 0; Loc != NumLocs; ++Loc) {
    std::vector<Rational> &Ts = Times[Loc];
    Ts.clear();
    Ts.push_back(Rational(0));
    for (const PsMessage &M : Mem.msgs(Loc))
      for (const Rational &T : {M.From, M.To}) {
        assert(Ts.back() <= T && "message endpoints out of order");
        if (Ts.back() != T)
          Ts.push_back(T);
      }
  }

  // A timestamp's rank is its index in the table. The renaming is strictly
  // monotone per location, so renaming in place keeps every message list
  // sorted and disjoint and every promise list sorted.
  auto remap = [&](unsigned Loc, Rational &T) {
    const std::vector<Rational> &Ts = Times[Loc];
    auto It = std::lower_bound(Ts.begin(), Ts.end(), T);
    assert(It != Ts.end() && *It == T && "timestamp is no message endpoint");
    T = Rational(static_cast<int64_t>(It - Ts.begin()));
  };
  auto remapView = [&](View &V) {
    for (unsigned Loc = 0; Loc != NumLocs; ++Loc) {
      Rational T = V.get(Loc);
      remap(Loc, T);
      V.set(Loc, T);
    }
  };
  for (unsigned Loc = 0; Loc != NumLocs; ++Loc)
    for (PsMessage &M : Mem.msgsMutable(Loc)) {
      remap(Loc, M.From);
      remap(Loc, M.To);
      if (M.MView.has_value())
        remapView(*M.MView);
    }
  for (PsThread &T : Threads) {
    remapView(T.V);
    for (MsgId &Id : T.Promises)
      remap(Id.Loc, Id.To);
  }
}

PsMachineState PsMachineState::project(unsigned Tid) const {
  PsMachineState R;
  R.Mem = Mem;
  R.Threads.resize(Threads.size());
  for (PsThread &T : R.Threads)
    T.V = View::zero(Mem.numLocs());
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
    Writable.push_back(Sum.NaWritten.unionWith(Sum.AtomicAccessed));
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
    S.Threads.push_back(std::move(Th));
  }
  return S;
}

bool PsMachine::isRacy(const PsMachineState &S, unsigned Tid, unsigned Loc,
                       bool AtomicAccess) const {
  const PsThread &T = S.Threads[Tid];
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

} // namespace

void PsMachine::stepFail(const PsMachineState &S, unsigned Tid,
                         std::vector<PsMachineState> &Out) const {
  if (!canFail(S.Threads[Tid]))
    return;
  PsMachineState Next = S;
  Next.Threads[Tid].Prog.setError();
  Next.Bottom = true;
  Out.push_back(std::move(Next));
}

void PsMachine::stepRead(const PsMachineState &S, unsigned Tid,
                         const ProgState::Pending &Pend,
                         std::vector<PsMachineState> &Out,
                         bool ForCertification) const {
  const PsThread &T = S.Threads[Tid];
  unsigned X = Pend.Loc;
  bool Acq = Pend.RM == ReadMode::ACQ;

  // (read): any valued message at or above the view.
  for (const PsMessage &M : S.Mem.msgs(X)) {
    if (M.Valueless || M.To < T.V.get(X))
      continue;
    PsMachineState Next = S;
    PsThread &NT = Next.Threads[Tid];
    NT.Prog.applyRead(Prog, Tid, M.V);
    View NV = NT.V.joined(View::single(Prog.numLocs(), X, M.To));
    if (Acq)
      NV = joinMsgView(NV, M.MView);
    NT.V = NV;
    Out.push_back(std::move(Next));
  }

  // (racy-read): read undef without moving the view.
  if (isRacy(S, Tid, X, Pend.RM != ReadMode::NA)) {
    if (!ForCertification)
      ++RaceStepCount;
    PsMachineState Next = S;
    Next.Threads[Tid].Prog.applyRead(Prog, Tid, Value::undef());
    Out.push_back(std::move(Next));
  }
}

void PsMachine::stepWrite(const PsMachineState &S, unsigned Tid,
                          const ProgState::Pending &Pend,
                          std::vector<PsMachineState> &Out,
                          bool ForCertification) const {
  const PsThread &T = S.Threads[Tid];
  unsigned X = Pend.Loc;
  Value V = Pend.WVal;
  Rational Vx = T.V.get(X);

  // (racy-write): UB when racing.
  if (isRacy(S, Tid, X, Pend.WM != WriteMode::NA)) {
    if (!ForCertification)
      ++RaceStepCount;
    stepFail(S, Tid, Out);
  }

  auto emit = [&](Rational NewTo, std::vector<MsgId> Fulfilled,
                  std::optional<PsMessage> NewMsg) {
    PsMachineState Next = S;
    PsThread &NT = Next.Threads[Tid];
    NT.Prog.applyWrite(Prog, Tid);
    NT.V.set(X, NewTo);
    for (const MsgId &Id : Fulfilled)
      NT.removePromise(Id);
    if (NewMsg.has_value())
      Next.Mem.insert(*NewMsg);
    Out.push_back(std::move(Next));
  };

  switch (Pend.WM) {
  case WriteMode::NA: {
    // Own ⊥-view promises at x above the view are candidates for
    // fulfillment — either as the final message (matching value) or as
    // extra "split" messages below it (memory: na-write, Appendix B).
    std::vector<const PsMessage *> Cands;
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
      std::vector<MsgId> Splits;
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
        std::vector<MsgId> All = Splits;
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
                        const ProgState::Pending &Pend,
                        std::vector<PsMachineState> &Out,
                        bool ForCertification) const {
  const PsThread &T = S.Threads[Tid];
  unsigned X = Pend.Loc;
  bool Acq = Pend.RM == ReadMode::ACQ;

  auto finish = [&](PsMachineState Next, bool DoesWrite, Value NewVal,
                    View ReadView, Rational ReadTo, bool Adjacent) {
    PsThread &NT = Next.Threads[Tid];
    if (NT.Prog.isError()) {
      // CAS comparison on undef: UB (subject to the fail condition).
      if (!canFail(T))
        return;
      Next.Bottom = true;
      Out.push_back(std::move(Next));
      return;
    }
    if (!DoesWrite) {
      NT.V = ReadView;
      Out.push_back(std::move(Next));
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
    std::vector<TimeSlot> Slots;
    if (Adjacent) {
      std::optional<TimeSlot> Slot = S.Mem.adjacentSlot(X, ReadTo);
      if (!Slot.has_value())
        return; // another message is attached: this update is blocked
      Slots.push_back(*Slot);
    } else {
      Slots = S.Mem.slotsAbove(X, ReadView.get(X));
    }
    for (const TimeSlot &Slot : Slots) {
      PsMachineState Cand = Next;
      PsThread &CT = Cand.Threads[Tid];
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
      Cand.Mem.insert(M);
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
    PsMachineState Next = S;
    PsThread &NT = Next.Threads[Tid];
    bool DoesWrite = false;
    Value NewVal;
    NT.Prog.applyRmw(Prog, Tid, M.V, DoesWrite, NewVal);
    View RV = T.V.joined(View::single(Prog.numLocs(), X, M.To));
    if (Acq)
      RV = joinMsgView(RV, M.MView);
    finish(std::move(Next), DoesWrite, NewVal, RV, M.To,
           /*Adjacent=*/true);
  }

  // Racy update: read undef (no adjacency; no view gain from the read).
  if (isRacy(S, Tid, X, /*AtomicAccess=*/true)) {
    if (!ForCertification)
      ++RaceStepCount;
    PsMachineState Next = S;
    PsThread &NT = Next.Threads[Tid];
    bool DoesWrite = false;
    Value NewVal;
    NT.Prog.applyRmw(Prog, Tid, Value::undef(), DoesWrite, NewVal);
    finish(std::move(Next), DoesWrite, NewVal, T.V, Rational(0),
           /*Adjacent=*/false);
  }
}

void PsMachine::stepPromise(const PsMachineState &S, unsigned Tid,
                            std::vector<PsMachineState> &Out) const {
  const PsThread &T = S.Threads[Tid];
  if (T.Promises.size() >= Cfg.PromiseBudget)
    return;

  for (unsigned X : Writable[Tid].members()) {
    bool Atomic = Prog.isAtomicLoc(X);
    for (const TimeSlot &Slot : S.Mem.slotsAbove(X, T.V.get(X))) {
      auto emit = [&](PsMessage M) {
        M.Loc = X;
        M.From = Slot.From;
        M.To = Slot.To;
        PsMachineState Next = S;
        Next.Mem.insert(M);
        Next.Threads[Tid].addPromise(MsgId{X, Slot.To});
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
                          std::vector<PsMachineState> &Out) const {
  // (lower): replace an own promise ⟨x@t, v, V⟩ by ⟨x@t, v', V'⟩ with
  // v ⊑ v' and V' ⊑ V — i.e. raise the value to undef and/or drop the
  // view to ⊥.
  for (const MsgId &Id : S.Threads[Tid].Promises) {
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
      PsMachineState Next = S;
      PsMessage *NM = Next.Mem.findMutable(Id);
      if (DoUndef)
        NM->V = Value::undef();
      if (DoBot)
        NM->MView = std::nullopt;
      Out.push_back(std::move(Next));
    }
  }
}

std::vector<PsMachineState>
PsMachine::microSteps(const PsMachineState &S, unsigned Tid,
                      bool ForCertification) const {
  std::vector<PsMachineState> Out;
  const PsThread &T = S.Threads[Tid];
  if (S.Bottom || T.Prog.status() != ProgState::Status::Running)
    return Out;

  ProgState::Pending Pend = T.Prog.pending(Prog, Tid);
  switch (Pend.K) {
  case ProgState::Pending::Kind::Silent: {
    PsMachineState Next = S;
    Next.Threads[Tid].Prog.applySilent(Prog, Tid);
    Out.push_back(std::move(Next));
    break;
  }
  case ProgState::Pending::Kind::Fail:
    stepFail(S, Tid, Out);
    break;
  case ProgState::Pending::Kind::Choose: {
    for (int64_t V : Cfg.Domain.values()) {
      PsMachineState Next = S;
      Next.Threads[Tid].Prog.applyChoose(Prog, Tid, Value::of(V));
      Out.push_back(std::move(Next));
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
      for (const MsgId &Id : S.Threads[Tid].Promises) {
        const PsMessage *M = S.Mem.find(Id);
        if (!M->Valueless && M->MView.has_value())
          return Out;
      }
    }
    PsMachineState Next = S;
    Next.Threads[Tid].Prog.applyFence(Prog, Tid);
    Out.push_back(std::move(Next));
    break;
  }
  case ProgState::Pending::Kind::Print: {
    PsMachineState Next = S;
    Next.Outs.push_back(Pend.WVal);
    Next.Threads[Tid].Prog.applyPrint(Prog, Tid);
    Out.push_back(std::move(Next));
    break;
  }
  }

  if (!ForCertification)
    stepPromise(S, Tid, Out);
  stepLower(S, Tid, Out);
  return Out;
}

namespace {

struct StateHash {
  size_t operator()(const PsMachineState &S) const {
    return static_cast<size_t>(S.hash());
  }
};

} // namespace

memo::Fp128 PsMachine::certKey(const PsMachineState &S, unsigned Tid) {
  memo::Fp128 F = memo::fpSeed(/*Tag=*/0x70736372 /* "pscr" */);
  memo::fpMix(F, Tid);
  memo::fpMix(F, S.Threads[Tid].hash());
  memo::fpMix(F, S.Mem.hash());
  return F;
}

bool PsMachine::certifiable(const PsMachineState &S, unsigned Tid) const {
  if (S.Threads[Tid].Promises.empty())
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
  std::unordered_set<PsMachineState, StateHash> Visited;
  std::vector<const PsMachineState *> Stack;
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
    if (Cur.Threads[Tid].Promises.empty())
      return {/*Ok=*/true, /*BudgetHit=*/false};
    if (Cur.Bottom)
      continue;
    for (PsMachineState &Next : microSteps(Cur, Tid,
                                           /*ForCertification=*/true)) {
      if (Cfg.Normalize)
        Next.normalize();
      if (Next.Threads[Tid].Promises.empty())
        return {/*Ok=*/true, /*BudgetHit=*/false};
      auto [It, Inserted] = Visited.insert(std::move(Next));
      if (Inserted)
        Stack.push_back(&*It);
    }
  }
  return {/*Ok=*/false, /*BudgetHit=*/false};
}

std::vector<PsMachineState>
PsMachine::threadSuccessors(const PsMachineState &S, unsigned Tid) const {
  std::vector<PsMachineState> Out;
  for (PsMachineState &Next : microSteps(S, Tid, /*ForCertification=*/false)) {
    if (Cfg.Normalize)
      Next.normalize();
    if (Next.Bottom) {
      Out.push_back(std::move(Next)); // (machine: failure) — no cert
      continue;
    }
    if (certifiable(Next, Tid))
      Out.push_back(std::move(Next));
  }
  return Out;
}

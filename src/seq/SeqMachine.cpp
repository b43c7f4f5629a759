//===- seq/SeqMachine.cpp - Transitions of SEQ ----------------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "seq/SeqMachine.h"

#include "obs/Telemetry.h"

#include <cassert>

using namespace pseq;

SeqState SeqMachine::initial(LocSet Perm, LocSet Written,
                             std::span<const Value> Mem) const {
  SeqState S;
  S.Prog = ProgState::initial(Prog, Tid);
  S.Perm = Perm;
  S.Written = Written;
  S.Mem.assign(Mem.begin(), Mem.end());
  assert(S.Mem.size() == Prog.numLocs() && "memory size mismatch");
  return S;
}

PoolVector<Value> SeqMachine::readValues(bool IncludeUndef) const {
  PoolVector<Value> Out;
  Out.reserve(Cfg.Domain.size() + 1);
  for (int64_t V : Cfg.Domain.values())
    Out.push_back(Value::of(V));
  if (IncludeUndef)
    Out.push_back(Value::undef());
  return Out;
}

PoolVector<PartialMem> SeqMachine::partialMems(LocSet Dom) const {
  PoolVector<PartialMem> Out;
  Out.push_back(PartialMem());
  PoolVector<Value> Vals = readValues(/*IncludeUndef=*/true);
  for (unsigned Loc : Dom.members()) {
    PoolVector<PartialMem> Next;
    Next.reserve(Out.size() * Vals.size());
    for (const PartialMem &Base : Out) {
      for (Value V : Vals) {
        PartialMem M = Base;
        M.set(Loc, V);
        Next.push_back(std::move(M));
      }
    }
    Out = std::move(Next);
  }
  return Out;
}

namespace {

/// Restricts \p Mem to the locations in \p Dom (M|P in Fig. 1).
PartialMem restrict(const PoolVector<Value> &Mem, LocSet Dom) {
  PartialMem Out;
  for (unsigned Loc : Dom.members())
    Out.set(Loc, Mem[Loc]);
  return Out;
}

} // namespace

SeqTransitions SeqMachine::successors(const SeqState &S) const {
  SeqTransitions Out = successorsUncounted(S);
  if (Cfg.Telem) {
    Cfg.Telem->Counters.add("seq.machine.successor_calls");
    Cfg.Telem->Counters.add("seq.machine.transitions", Out.size());
  }
  return Out;
}

SeqTransitions SeqMachine::successorsUncounted(const SeqState &S) const {
  SeqTransitions Out;
  if (S.Prog.status() != ProgState::Status::Running)
    return Out;

  ProgState::Pending Pend = S.Prog.pending(Prog, Tid);
  switch (Pend.K) {
  case ProgState::Pending::Kind::Silent:
  case ProgState::Pending::Kind::Fail: {
    SeqTransition T;
    T.Next = S;
    T.Next.Prog.applySilent(Prog, Tid);
    Out.push_back(std::move(T));
    return Out;
  }

  case ProgState::Pending::Kind::Choose: {
    for (Value V : readValues(/*IncludeUndef=*/false)) {
      SeqTransition T;
      T.Next = S;
      T.Next.Prog.applyChoose(Prog, Tid, V);
      T.Labels.push_back(SeqEvent::choose(V));
      Out.push_back(std::move(T));
    }
    return Out;
  }

  case ProgState::Pending::Kind::Read: {
    unsigned X = Pend.Loc;
    switch (Pend.RM) {
    case ReadMode::NA: {
      // (na-read): load M(x) when x ∈ P; (racy-na-read): load undef
      // otherwise. Unlabeled either way.
      SeqTransition T;
      T.Next = S;
      Value V = S.Perm.contains(X) ? S.Mem[X] : Value::undef();
      T.Next.Prog.applyRead(Prog, Tid, V);
      Out.push_back(std::move(T));
      return Out;
    }
    case ReadMode::RLX: {
      // (choice/relaxed): the environment supplies any value.
      for (Value V : readValues(/*IncludeUndef=*/true)) {
        SeqTransition T;
        T.Next = S;
        T.Next.Prog.applyRead(Prog, Tid, V);
        T.Labels.push_back(SeqEvent::rlxRead(X, V));
        Out.push_back(std::move(T));
      }
      return Out;
    }
    case ReadMode::ACQ: {
      // (acq-read): nondeterministically gain permissions P' ⊇ P and new
      // values V for the gained locations.
      for (Value V : readValues(/*IncludeUndef=*/true)) {
        for (LocSet P2 : S.Perm.supersetsWithin(Cfg.Universe)) {
          for (PartialMem &Vm : partialMems(P2.setMinus(S.Perm))) {
            SeqTransition T;
            T.Next = S;
            T.Next.Prog.applyRead(Prog, Tid, V);
            T.Next.Perm = P2;
            for (const auto &[Loc, NewV] : Vm.entries())
              T.Next.Mem[Loc] = NewV;
            T.Labels.push_back(
                SeqEvent::acqRead(X, V, S.Perm, P2, S.Written, Vm));
            Out.push_back(std::move(T));
          }
        }
      }
      return Out;
    }
    }
    return Out;
  }

  case ProgState::Pending::Kind::Write: {
    unsigned X = Pend.Loc;
    Value V = Pend.WVal;
    switch (Pend.WM) {
    case WriteMode::NA: {
      SeqTransition T;
      T.Next = S;
      if (S.Perm.contains(X)) {
        // (na-write): update memory, record x ∈ F.
        T.Next.Prog.applyWrite(Prog, Tid);
        T.Next.Mem[X] = V;
        T.Next.Written.insert(X);
      } else {
        // (racy-na-write): UB.
        T.Next.Prog.setError();
      }
      Out.push_back(std::move(T));
      return Out;
    }
    case WriteMode::RLX: {
      SeqTransition T;
      T.Next = S;
      T.Next.Prog.applyWrite(Prog, Tid);
      T.Labels.push_back(SeqEvent::rlxWrite(X, V));
      Out.push_back(std::move(T));
      return Out;
    }
    case WriteMode::REL: {
      // (rel-write): nondeterministically lose permissions; record the
      // released memory M|P; reset F.
      PartialMem Released = restrict(S.Mem, S.Perm);
      for (LocSet P2 : S.Perm.subsets()) {
        SeqTransition T;
        T.Next = S;
        T.Next.Prog.applyWrite(Prog, Tid);
        T.Next.Perm = P2;
        T.Next.Written = LocSet::empty();
        T.Labels.push_back(
            SeqEvent::relWrite(X, V, S.Perm, P2, S.Written, Released));
        Out.push_back(std::move(T));
      }
      return Out;
    }
    }
    return Out;
  }

  case ProgState::Pending::Kind::Rmw: {
    // Extension: read part then write part, both in one transition (up to
    // two labels). Acquire read parts gain permissions, release write
    // parts lose them, mirroring the standalone accesses.
    unsigned X = Pend.Loc;
    for (Value Old : readValues(/*IncludeUndef=*/true)) {
      // Resolve the read part's permission effect.
      struct ReadCase {
        SeqState State;
        SeqLabels Labels;
      };
      PoolVector<ReadCase> ReadCases;
      if (Pend.RM == ReadMode::ACQ) {
        for (LocSet P2 : S.Perm.supersetsWithin(Cfg.Universe)) {
          for (PartialMem &Vm : partialMems(P2.setMinus(S.Perm))) {
            ReadCase RC;
            RC.State = S;
            RC.State.Perm = P2;
            for (const auto &[Loc, NewV] : Vm.entries())
              RC.State.Mem[Loc] = NewV;
            RC.Labels.push_back(
                SeqEvent::acqRead(X, Old, S.Perm, P2, S.Written, Vm));
            ReadCases.push_back(std::move(RC));
          }
        }
      } else {
        ReadCase RC;
        RC.State = S;
        RC.Labels.push_back(SeqEvent::rlxRead(X, Old));
        ReadCases.push_back(std::move(RC));
      }
      for (ReadCase &RC : ReadCases) {
        SeqState Mid = RC.State;
        bool DoesWrite = false;
        Value NewVal;
        Mid.Prog.applyRmw(Prog, Tid, Old, DoesWrite, NewVal);
        if (Mid.Prog.isError()) {
          // CAS comparison on undef: UB after the read part.
          SeqTransition T;
          T.Labels = RC.Labels;
          T.Next = std::move(Mid);
          Out.push_back(std::move(T));
          continue;
        }
        if (!DoesWrite) {
          SeqTransition T;
          T.Labels = RC.Labels;
          T.Next = std::move(Mid);
          Out.push_back(std::move(T));
          continue;
        }
        if (Pend.WM == WriteMode::REL) {
          PartialMem Released = restrict(Mid.Mem, Mid.Perm);
          for (LocSet P2 : Mid.Perm.subsets()) {
            SeqTransition T;
            T.Labels = RC.Labels;
            T.Labels.push_back(SeqEvent::relWrite(
                X, NewVal, Mid.Perm, P2, Mid.Written, Released));
            T.Next = Mid;
            T.Next.Perm = P2;
            T.Next.Written = LocSet::empty();
            Out.push_back(std::move(T));
          }
        } else {
          SeqTransition T;
          T.Labels = RC.Labels;
          T.Labels.push_back(SeqEvent::rlxWrite(X, NewVal));
          T.Next = std::move(Mid);
          Out.push_back(std::move(T));
        }
      }
    }
    return Out;
  }

  case ProgState::Pending::Kind::Fence: {
    if (Pend.FM == FenceMode::ACQ) {
      for (LocSet P2 : S.Perm.supersetsWithin(Cfg.Universe)) {
        for (PartialMem &Vm : partialMems(P2.setMinus(S.Perm))) {
          SeqTransition T;
          T.Next = S;
          T.Next.Prog.applyFence(Prog, Tid);
          T.Next.Perm = P2;
          for (const auto &[Loc, NewV] : Vm.entries())
            T.Next.Mem[Loc] = NewV;
          T.Labels.push_back(SeqEvent::acqFence(S.Perm, P2, S.Written, Vm));
          Out.push_back(std::move(T));
        }
      }
      return Out;
    }
    assert(Pend.FM == FenceMode::REL &&
           "combined fences are lowered at compile time");
    PartialMem Released = restrict(S.Mem, S.Perm);
    for (LocSet P2 : S.Perm.subsets()) {
      SeqTransition T;
      T.Next = S;
      T.Next.Prog.applyFence(Prog, Tid);
      T.Next.Perm = P2;
      T.Next.Written = LocSet::empty();
      T.Labels.push_back(SeqEvent::relFence(S.Perm, P2, S.Written, Released));
      Out.push_back(std::move(T));
    }
    return Out;
  }

  case ProgState::Pending::Kind::Print: {
    SeqTransition T;
    T.Next = S;
    T.Next.Prog.applyPrint(Prog, Tid);
    T.Labels.push_back(SeqEvent::syscall(Pend.WVal));
    Out.push_back(std::move(T));
    return Out;
  }
  }
  assert(false && "unknown pending kind");
  return Out;
}

//===- lang/ProgState.cpp - The program LTS -------------------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "lang/ProgState.h"

#include "support/Hashing.h"

#include <cassert>

using namespace pseq;

ProgState ProgState::initial(const Program &P, unsigned Tid) {
  ProgState S;
  S.Regs.assign(P.thread(Tid).Regs.size(), Value::of(0));
  return S;
}

Value ProgState::retVal() const {
  assert(St == Status::Done && "return value of a non-terminated state");
  return RetVal;
}

static const Instr &fetch(const Program &P, unsigned Tid, unsigned Pc) {
  const PoolVector<Instr> &Code = P.thread(Tid).Code;
  assert(Pc < Code.size() && "pc out of range");
  return Code[Pc];
}

ProgState::Pending ProgState::pending(const Program &P, unsigned Tid) const {
  assert(St == Status::Running && "pending() on a terminal state");
  const Instr &I = fetch(P, Tid, Pc);
  Pending Out;
  switch (I.Op) {
  case Instr::Opcode::Assign: {
    EvalResult R = I.E->eval(Regs);
    Out.K = R.IsUB ? Pending::Kind::Fail : Pending::Kind::Silent;
    return Out;
  }
  case Instr::Opcode::Jmp:
    Out.K = Pending::Kind::Silent;
    return Out;
  case Instr::Opcode::Br: {
    EvalResult R = I.E->eval(Regs);
    // Branching on undef invokes UB (Remark 1).
    Out.K = (R.IsUB || R.V.isUndef()) ? Pending::Kind::Fail
                                      : Pending::Kind::Silent;
    return Out;
  }
  case Instr::Opcode::Load:
    Out.K = Pending::Kind::Read;
    Out.RM = I.RM;
    Out.Loc = I.Loc;
    return Out;
  case Instr::Opcode::Store: {
    EvalResult R = I.E->eval(Regs);
    if (R.IsUB) {
      Out.K = Pending::Kind::Fail;
      return Out;
    }
    Out.K = Pending::Kind::Write;
    Out.WM = I.WM;
    Out.Loc = I.Loc;
    Out.WVal = R.V;
    return Out;
  }
  case Instr::Opcode::Cas:
  case Instr::Opcode::Fadd: {
    // Operand evaluation happens in applyRmw (it needs the old value for
    // CAS success determination), but UB in the operands surfaces now.
    EvalResult A = (I.Op == Instr::Opcode::Cas) ? I.E2->eval(Regs)
                                                : I.E->eval(Regs);
    EvalResult B = (I.Op == Instr::Opcode::Cas) ? I.E3->eval(Regs)
                                                : EvalResult::ok(Value::of(0));
    if (A.IsUB || B.IsUB) {
      Out.K = Pending::Kind::Fail;
      return Out;
    }
    Out.K = Pending::Kind::Rmw;
    Out.RM = I.RM;
    Out.WM = I.WM;
    Out.Loc = I.Loc;
    return Out;
  }
  case Instr::Opcode::Fence:
    Out.K = Pending::Kind::Fence;
    Out.FM = I.FM;
    return Out;
  case Instr::Opcode::Choose:
    Out.K = Pending::Kind::Choose;
    return Out;
  case Instr::Opcode::Freeze: {
    EvalResult R = I.E->eval(Regs);
    if (R.IsUB)
      Out.K = Pending::Kind::Fail;
    else if (R.V.isUndef())
      Out.K = Pending::Kind::Choose;
    else
      Out.K = Pending::Kind::Silent;
    return Out;
  }
  case Instr::Opcode::Print: {
    EvalResult R = I.E->eval(Regs);
    if (R.IsUB) {
      Out.K = Pending::Kind::Fail;
      return Out;
    }
    Out.K = Pending::Kind::Print;
    Out.WVal = R.V;
    return Out;
  }
  case Instr::Opcode::Return: {
    // Return is handled as a silent transition into the Done status.
    EvalResult R = I.E->eval(Regs);
    Out.K = R.IsUB ? Pending::Kind::Fail : Pending::Kind::Silent;
    return Out;
  }
  case Instr::Opcode::Abort:
    Out.K = Pending::Kind::Fail;
    return Out;
  }
  assert(false && "unknown opcode");
  return Out;
}

void ProgState::applySilent(const Program &P, unsigned Tid) {
  assert(St == Status::Running && "stepping a terminal state");
  const Instr &I = fetch(P, Tid, Pc);
  switch (I.Op) {
  case Instr::Opcode::Assign: {
    EvalResult R = I.E->eval(Regs);
    if (R.IsUB) {
      St = Status::Error;
      return;
    }
    Regs[I.Reg] = R.V;
    ++Pc;
    return;
  }
  case Instr::Opcode::Jmp:
    Pc = I.TargetTrue;
    return;
  case Instr::Opcode::Br: {
    EvalResult R = I.E->eval(Regs);
    if (R.IsUB || R.V.isUndef()) {
      St = Status::Error;
      return;
    }
    Pc = R.V.truthy() ? I.TargetTrue : I.TargetFalse;
    return;
  }
  case Instr::Opcode::Freeze: {
    EvalResult R = I.E->eval(Regs);
    assert(!R.IsUB && !R.V.isUndef() &&
           "freeze of undef must go through applyChoose");
    Regs[I.Reg] = R.V;
    ++Pc;
    return;
  }
  case Instr::Opcode::Return: {
    EvalResult R = I.E->eval(Regs);
    if (R.IsUB) {
      St = Status::Error;
      return;
    }
    St = Status::Done;
    RetVal = R.V;
    return;
  }
  case Instr::Opcode::Abort:
    St = Status::Error;
    return;
  default:
    // A Fail pending on Store/Print (UB in operand evaluation) also routes
    // here: drive the state to ⊥.
    St = Status::Error;
    return;
  }
}

void ProgState::applyRead(const Program &P, unsigned Tid, Value V) {
  const Instr &I = fetch(P, Tid, Pc);
  assert(I.Op == Instr::Opcode::Load && "applyRead on a non-load");
  Regs[I.Reg] = V;
  ++Pc;
}

void ProgState::applyChoose(const Program &P, unsigned Tid, Value V) {
  const Instr &I = fetch(P, Tid, Pc);
  assert((I.Op == Instr::Opcode::Choose || I.Op == Instr::Opcode::Freeze) &&
         "applyChoose on a non-choice");
  assert(!V.isUndef() && "choose resolves to a defined value");
  Regs[I.Reg] = V;
  ++Pc;
}

void ProgState::applyWrite(const Program &P, unsigned Tid) {
  const Instr &I = fetch(P, Tid, Pc);
  assert(I.Op == Instr::Opcode::Store && "applyWrite on a non-store");
  (void)I;
  ++Pc;
}

void ProgState::applyFence(const Program &P, unsigned Tid) {
  const Instr &I = fetch(P, Tid, Pc);
  assert(I.Op == Instr::Opcode::Fence && "applyFence on a non-fence");
  (void)I;
  ++Pc;
}

void ProgState::applyPrint(const Program &P, unsigned Tid) {
  const Instr &I = fetch(P, Tid, Pc);
  assert(I.Op == Instr::Opcode::Print && "applyPrint on a non-print");
  (void)I;
  ++Pc;
}

void ProgState::applyRmw(const Program &P, unsigned Tid, Value Old,
                         bool &DoesWrite, Value &NewVal) {
  const Instr &I = fetch(P, Tid, Pc);
  DoesWrite = false;
  NewVal = Value::of(0);
  if (I.Op == Instr::Opcode::Cas) {
    EvalResult Expected = I.E2->eval(Regs);
    EvalResult New = I.E3->eval(Regs);
    assert(!Expected.IsUB && !New.IsUB && "UB surfaced in pending()");
    // Comparing against undef is branching on undef: UB.
    if (Old.isUndef() || Expected.V.isUndef()) {
      St = Status::Error;
      return;
    }
    Regs[I.Reg] = Old;
    if (Old.get() == Expected.V.get()) {
      DoesWrite = true;
      NewVal = New.V;
    }
    ++Pc;
    return;
  }
  assert(I.Op == Instr::Opcode::Fadd && "applyRmw on a non-RMW");
  EvalResult Addend = I.E->eval(Regs);
  assert(!Addend.IsUB && "UB surfaced in pending()");
  Regs[I.Reg] = Old;
  DoesWrite = true;
  if (Old.isUndef() || Addend.V.isUndef())
    NewVal = Value::undef();
  else
    NewVal = Value::of(Old.get() + Addend.V.get());
  ++Pc;
}

bool ProgState::operator==(const ProgState &O) const {
  return Pc == O.Pc && St == O.St && RetVal == O.RetVal && Regs == O.Regs;
}

uint64_t ProgState::hash() const {
  uint64_t H = hashCombine(Pc, static_cast<uint64_t>(St));
  H = hashCombine(H, RetVal.hash());
  H = hashCombine(H, Regs.size());
  for (Value V : Regs)
    H = hashCombine(H, V.hash());
  return H;
}

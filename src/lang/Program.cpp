//===- lang/Program.cpp - Programs, arenas, bytecode compiler -------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "lang/Program.h"

#include <cassert>

using namespace pseq;

Expr *Program::newExpr(Expr::Kind K) {
  return &ExprArena.emplace_back(K, NodeKey());
}

Stmt *Program::newStmt(Stmt::Kind K) {
  return &StmtArena.emplace_back(K, NodeKey());
}

unsigned Program::declareLoc(const std::string &Name, bool Atomic) {
  if (std::optional<unsigned> Existing = Locs.lookup(Name)) {
    assert(AtomicFlag[*Existing] == Atomic &&
           "location redeclared with different atomicity");
    return *Existing;
  }
  unsigned Idx = Locs.intern(Name);
  assert(Idx < LocSet::MaxLocs && "too many shared locations");
  AtomicFlag.push_back(Atomic);
  return Idx;
}

bool Program::isAtomicLoc(unsigned Loc) const {
  assert(Loc < AtomicFlag.size() && "location index out of range");
  return AtomicFlag[Loc];
}

LocSet Program::naLocs() const {
  LocSet S;
  for (unsigned L = 0, E = numLocs(); L != E; ++L)
    if (!AtomicFlag[L])
      S.insert(L);
  return S;
}

unsigned Program::addThread() {
  Threads.push_back(std::make_unique<ThreadCode>());
  return static_cast<unsigned>(Threads.size() - 1);
}

Program::ThreadCode &Program::thread(unsigned Tid) {
  assert(Tid < Threads.size() && "thread index out of range");
  return *Threads[Tid];
}

const Program::ThreadCode &Program::thread(unsigned Tid) const {
  assert(Tid < Threads.size() && "thread index out of range");
  return *Threads[Tid];
}

void Program::setThreadBody(unsigned Tid, const Stmt *Body) {
  ThreadCode &T = thread(Tid);
  T.Body = Body;
  T.Code = compileStmt(Body);
}

//===----------------------------------------------------------------------===
// Expression factories
//===----------------------------------------------------------------------===

const Expr *Program::exprConst(Value V) {
  Expr *E = newExpr(Expr::Kind::Const);
  E->ConstVal = V;
  return E;
}

const Expr *Program::exprReg(unsigned Reg) {
  Expr *E = newExpr(Expr::Kind::Reg);
  E->RegIdx = Reg;
  return E;
}

const Expr *Program::exprUn(UnOp Op, const Expr *Sub) {
  Expr *E = newExpr(Expr::Kind::Unary);
  E->UOp = Op;
  E->Lhs = Sub;
  return E;
}

const Expr *Program::exprBin(BinOp Op, const Expr *L, const Expr *R) {
  Expr *E = newExpr(Expr::Kind::Binary);
  E->BOp = Op;
  E->Lhs = L;
  E->Rhs = R;
  return E;
}

//===----------------------------------------------------------------------===
// Statement factories
//===----------------------------------------------------------------------===

const Stmt *Program::stmtSkip() { return newStmt(Stmt::Kind::Skip); }

const Stmt *Program::stmtAssign(unsigned Reg, const Expr *E) {
  Stmt *S = newStmt(Stmt::Kind::Assign);
  S->Reg = Reg;
  S->E = E;
  return S;
}

const Stmt *Program::stmtLoad(unsigned Reg, unsigned Loc, ReadMode M) {
  assert((M == ReadMode::NA) == !isAtomicLoc(Loc) &&
         "access mode must match the location's atomicity (no mixing; §2)");
  Stmt *S = newStmt(Stmt::Kind::Load);
  S->Reg = Reg;
  S->Loc = Loc;
  S->RM = M;
  return S;
}

const Stmt *Program::stmtStore(unsigned Loc, const Expr *E, WriteMode M) {
  assert((M == WriteMode::NA) == !isAtomicLoc(Loc) &&
         "access mode must match the location's atomicity (no mixing; §2)");
  Stmt *S = newStmt(Stmt::Kind::Store);
  S->Loc = Loc;
  S->E = E;
  S->WM = M;
  return S;
}

const Stmt *Program::stmtCas(unsigned Reg, unsigned Loc, const Expr *Expected,
                             const Expr *New, ReadMode RM, WriteMode WM) {
  assert(isAtomicLoc(Loc) && "RMW on a non-atomic location");
  assert(RM != ReadMode::NA && WM != WriteMode::NA && "non-atomic RMW");
  Stmt *S = newStmt(Stmt::Kind::Cas);
  S->Reg = Reg;
  S->Loc = Loc;
  S->E2 = Expected;
  S->E3 = New;
  S->RM = RM;
  S->WM = WM;
  return S;
}

const Stmt *Program::stmtFadd(unsigned Reg, unsigned Loc, const Expr *E,
                              ReadMode RM, WriteMode WM) {
  assert(isAtomicLoc(Loc) && "RMW on a non-atomic location");
  assert(RM != ReadMode::NA && WM != WriteMode::NA && "non-atomic RMW");
  Stmt *S = newStmt(Stmt::Kind::Fadd);
  S->Reg = Reg;
  S->Loc = Loc;
  S->E = E;
  S->RM = RM;
  S->WM = WM;
  return S;
}

const Stmt *Program::stmtFence(FenceMode M) {
  Stmt *S = newStmt(Stmt::Kind::Fence);
  S->FM = M;
  return S;
}

const Stmt *Program::stmtSeq(std::vector<const Stmt *> Stmts) {
  Stmt *S = newStmt(Stmt::Kind::Seq);
  S->Body = std::move(Stmts);
  return S;
}

const Stmt *Program::stmtIf(const Expr *Cond, const Stmt *Then,
                            const Stmt *Else) {
  Stmt *S = newStmt(Stmt::Kind::If);
  S->E = Cond;
  S->S1 = Then;
  S->S2 = Else;
  return S;
}

const Stmt *Program::stmtWhile(const Expr *Cond, const Stmt *Body) {
  Stmt *S = newStmt(Stmt::Kind::While);
  S->E = Cond;
  S->S1 = Body;
  return S;
}

const Stmt *Program::stmtChoose(unsigned Reg) {
  Stmt *S = newStmt(Stmt::Kind::Choose);
  S->Reg = Reg;
  return S;
}

const Stmt *Program::stmtFreeze(unsigned Reg, const Expr *E) {
  Stmt *S = newStmt(Stmt::Kind::Freeze);
  S->Reg = Reg;
  S->E = E;
  return S;
}

const Stmt *Program::stmtPrint(const Expr *E) {
  Stmt *S = newStmt(Stmt::Kind::Print);
  S->E = E;
  return S;
}

const Stmt *Program::stmtReturn(const Expr *E) {
  Stmt *S = newStmt(Stmt::Kind::Return);
  S->E = E;
  return S;
}

const Stmt *Program::stmtAbort() { return newStmt(Stmt::Kind::Abort); }

//===----------------------------------------------------------------------===
// Cloning
//===----------------------------------------------------------------------===

const Expr *Program::cloneExpr(const Expr *E) {
  if (!E)
    return nullptr;
  switch (E->kind()) {
  case Expr::Kind::Const:
    return exprConst(E->constVal());
  case Expr::Kind::Reg:
    return exprReg(E->reg());
  case Expr::Kind::Unary:
    return exprUn(E->unOp(), cloneExpr(E->lhs()));
  case Expr::Kind::Binary:
    return exprBin(E->binOp(), cloneExpr(E->lhs()), cloneExpr(E->rhs()));
  }
  assert(false && "unknown expression kind");
  return nullptr;
}

const Stmt *Program::cloneStmt(const Stmt *S) {
  if (!S)
    return nullptr;
  switch (S->kind()) {
  case Stmt::Kind::Skip:
    return stmtSkip();
  case Stmt::Kind::Assign:
    return stmtAssign(S->reg(), cloneExpr(S->expr()));
  case Stmt::Kind::Load:
    return stmtLoad(S->reg(), S->loc(), S->readMode());
  case Stmt::Kind::Store:
    return stmtStore(S->loc(), cloneExpr(S->expr()), S->writeMode());
  case Stmt::Kind::Cas:
    return stmtCas(S->reg(), S->loc(), cloneExpr(S->casExpected()),
                   cloneExpr(S->casNew()), S->readMode(), S->writeMode());
  case Stmt::Kind::Fadd:
    return stmtFadd(S->reg(), S->loc(), cloneExpr(S->expr()), S->readMode(),
                    S->writeMode());
  case Stmt::Kind::Fence:
    return stmtFence(S->fenceMode());
  case Stmt::Kind::Seq: {
    std::vector<const Stmt *> Kids;
    Kids.reserve(S->seq().size());
    for (const Stmt *Kid : S->seq())
      Kids.push_back(cloneStmt(Kid));
    return stmtSeq(std::move(Kids));
  }
  case Stmt::Kind::If:
    return stmtIf(cloneExpr(S->expr()), cloneStmt(S->thenStmt()),
                  cloneStmt(S->elseStmt()));
  case Stmt::Kind::While:
    return stmtWhile(cloneExpr(S->expr()), cloneStmt(S->body()));
  case Stmt::Kind::Choose:
    return stmtChoose(S->reg());
  case Stmt::Kind::Freeze:
    return stmtFreeze(S->reg(), cloneExpr(S->expr()));
  case Stmt::Kind::Print:
    return stmtPrint(cloneExpr(S->expr()));
  case Stmt::Kind::Return:
    return stmtReturn(cloneExpr(S->expr()));
  case Stmt::Kind::Abort:
    return stmtAbort();
  }
  assert(false && "unknown statement kind");
  return nullptr;
}

//===----------------------------------------------------------------------===
// Bytecode compilation
//===----------------------------------------------------------------------===

namespace {

/// Emits bytecode for a statement tree with explicit jump targets.
class Compiler {
  PoolVector<Instr> Code;

  unsigned here() const { return static_cast<unsigned>(Code.size()); }

  unsigned emit(Instr I) {
    Code.push_back(I);
    return static_cast<unsigned>(Code.size() - 1);
  }

public:
  void compile(const Stmt *S) {
    switch (S->kind()) {
    case Stmt::Kind::Skip:
      return; // compiles to nothing
    case Stmt::Kind::Assign: {
      Instr I{Instr::Opcode::Assign};
      I.Reg = S->reg();
      I.E = S->expr();
      emit(I);
      return;
    }
    case Stmt::Kind::Load: {
      Instr I{Instr::Opcode::Load};
      I.Reg = S->reg();
      I.Loc = S->loc();
      I.RM = S->readMode();
      emit(I);
      return;
    }
    case Stmt::Kind::Store: {
      Instr I{Instr::Opcode::Store};
      I.Loc = S->loc();
      I.WM = S->writeMode();
      I.E = S->expr();
      emit(I);
      return;
    }
    case Stmt::Kind::Cas: {
      Instr I{Instr::Opcode::Cas};
      I.Reg = S->reg();
      I.Loc = S->loc();
      I.RM = S->readMode();
      I.WM = S->writeMode();
      I.E2 = S->casExpected();
      I.E3 = S->casNew();
      emit(I);
      return;
    }
    case Stmt::Kind::Fadd: {
      Instr I{Instr::Opcode::Fadd};
      I.Reg = S->reg();
      I.Loc = S->loc();
      I.RM = S->readMode();
      I.WM = S->writeMode();
      I.E = S->expr();
      emit(I);
      return;
    }
    case Stmt::Kind::Fence: {
      // Combined fences lower to a release part followed by an acquire
      // part. (The SC-fence total order of the full promising model is not
      // modeled, matching the paper's presented fragment.)
      if (S->fenceMode() == FenceMode::ACQREL ||
          S->fenceMode() == FenceMode::SC) {
        Instr Rel{Instr::Opcode::Fence};
        Rel.FM = FenceMode::REL;
        emit(Rel);
        Instr Acq{Instr::Opcode::Fence};
        Acq.FM = FenceMode::ACQ;
        emit(Acq);
        return;
      }
      Instr I{Instr::Opcode::Fence};
      I.FM = S->fenceMode();
      emit(I);
      return;
    }
    case Stmt::Kind::Seq:
      for (const Stmt *Kid : S->seq())
        compile(Kid);
      return;
    case Stmt::Kind::If: {
      Instr Br{Instr::Opcode::Br};
      Br.E = S->expr();
      unsigned BrIdx = emit(Br);
      Code[BrIdx].TargetTrue = here();
      compile(S->thenStmt());
      Instr Jmp{Instr::Opcode::Jmp};
      unsigned JmpIdx = emit(Jmp);
      Code[BrIdx].TargetFalse = here();
      if (S->elseStmt())
        compile(S->elseStmt());
      Code[JmpIdx].TargetTrue = here();
      return;
    }
    case Stmt::Kind::While: {
      unsigned Head = here();
      Instr Br{Instr::Opcode::Br};
      Br.E = S->expr();
      unsigned BrIdx = emit(Br);
      Code[BrIdx].TargetTrue = here();
      compile(S->body());
      Instr Jmp{Instr::Opcode::Jmp};
      Jmp.TargetTrue = Head;
      emit(Jmp);
      Code[BrIdx].TargetFalse = here();
      return;
    }
    case Stmt::Kind::Choose: {
      Instr I{Instr::Opcode::Choose};
      I.Reg = S->reg();
      emit(I);
      return;
    }
    case Stmt::Kind::Freeze: {
      Instr I{Instr::Opcode::Freeze};
      I.Reg = S->reg();
      I.E = S->expr();
      emit(I);
      return;
    }
    case Stmt::Kind::Print: {
      Instr I{Instr::Opcode::Print};
      I.E = S->expr();
      emit(I);
      return;
    }
    case Stmt::Kind::Return: {
      Instr I{Instr::Opcode::Return};
      I.E = S->expr();
      emit(I);
      return;
    }
    case Stmt::Kind::Abort:
      emit(Instr{Instr::Opcode::Abort});
      return;
    }
    assert(false && "unknown statement kind");
  }

  PoolVector<Instr> take(const Expr *ImplicitRet) {
    // Ensure every path terminates: append `return 0`.
    Instr Ret{Instr::Opcode::Return};
    Ret.E = ImplicitRet;
    Code.push_back(Ret);
    return std::move(Code);
  }
};

} // namespace

PoolVector<Instr> pseq::compileStmt(const Stmt *Body) {
  // The implicit-return constant lives outside any arena; use a static
  // zero-constant Expr. Only a Program creates Exprs, so we route through a
  // function-local Program that lives forever.
  static Program *Statics = new Program();
  static const Expr *Zero = Statics->exprConst(Value::of(0));
  Compiler C;
  if (Body)
    C.compile(Body);
  return C.take(Zero);
}

AccessSummary Program::accessSummary(unsigned Tid) const {
  const ThreadCode &T = thread(Tid);
  AccessSummary Sum;
  for (const Instr &I : T.Code) {
    switch (I.Op) {
    case Instr::Opcode::Load:
      if (I.RM == ReadMode::NA)
        Sum.NaAccessed.insert(I.Loc);
      else
        Sum.AtomicAccessed.insert(I.Loc);
      if (I.RM == ReadMode::ACQ)
        Sum.HasAcquire = true;
      break;
    case Instr::Opcode::Store:
      if (I.WM == WriteMode::NA) {
        Sum.NaAccessed.insert(I.Loc);
        Sum.NaWritten.insert(I.Loc);
      } else {
        Sum.AtomicAccessed.insert(I.Loc);
      }
      if (I.WM == WriteMode::REL)
        Sum.HasRelease = true;
      break;
    case Instr::Opcode::Cas:
    case Instr::Opcode::Fadd:
      Sum.AtomicAccessed.insert(I.Loc);
      if (I.RM == ReadMode::ACQ)
        Sum.HasAcquire = true;
      if (I.WM == WriteMode::REL)
        Sum.HasRelease = true;
      break;
    case Instr::Opcode::Fence:
      if (I.FM != FenceMode::REL)
        Sum.HasAcquire = true;
      if (I.FM != FenceMode::ACQ)
        Sum.HasRelease = true;
      break;
    default:
      break;
    }
  }
  return Sum;
}

std::unique_ptr<Program> pseq::cloneProgram(const Program &P) {
  auto Q = std::make_unique<Program>();
  for (unsigned L = 0, E = P.numLocs(); L != E; ++L)
    Q->declareLoc(P.locName(L), P.isAtomicLoc(L));
  for (unsigned T = 0, E = P.numThreads(); T != E; ++T) {
    unsigned Tid = Q->addThread();
    Q->thread(Tid).Regs = P.thread(T).Regs;
    Q->setThreadBody(Tid, Q->cloneStmt(P.thread(T).Body));
  }
  return Q;
}

bool pseq::sameLayout(const Program &A, const Program &B) {
  if (A.numLocs() != B.numLocs())
    return false;
  for (unsigned L = 0, E = A.numLocs(); L != E; ++L) {
    if (A.locName(L) != B.locName(L))
      return false;
    if (A.isAtomicLoc(L) != B.isAtomicLoc(L))
      return false;
  }
  return true;
}

//===- analysis/AbstractValue.cpp - Abstract domains of §4 ----------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "analysis/AbstractValue.h"

#include <cassert>

using namespace pseq;

//===----------------------------------------------------------------------===
// AbsVal
//===----------------------------------------------------------------------===

AbsVal AbsVal::constant(Value V) {
  AbsVal A;
  A.IsConst = true;
  A.C = V;
  return A;
}

AbsVal AbsVal::reg(unsigned R) {
  AbsVal A;
  A.IsConst = false;
  A.Reg = R;
  return A;
}

Value AbsVal::constVal() const {
  assert(IsConst && "not a constant");
  return C;
}

unsigned AbsVal::regIdx() const {
  assert(!IsConst && "not a register");
  return Reg;
}

std::optional<AbsVal> AbsVal::ofExpr(const Expr *E) {
  if (E->kind() == Expr::Kind::Const)
    return constant(E->constVal());
  if (E->kind() == Expr::Kind::Reg)
    return reg(E->reg());
  return std::nullopt;
}

const Expr *AbsVal::materialize(Program &Dst) const {
  if (IsConst)
    return Dst.exprConst(C);
  return Dst.exprReg(Reg);
}

bool AbsVal::operator==(const AbsVal &O) const {
  if (IsConst != O.IsConst)
    return false;
  return IsConst ? C == O.C : Reg == O.Reg;
}

std::string AbsVal::str(const SymbolTable *Regs) const {
  if (IsConst)
    return C.str();
  if (Regs)
    return Regs->name(Reg);
  return "r" + std::to_string(Reg);
}

//===----------------------------------------------------------------------===
// SlfToken
//===----------------------------------------------------------------------===

SlfToken SlfToken::circ(AbsVal V) {
  SlfToken T;
  T.K = Kind::Circ;
  T.V = V;
  return T;
}

SlfToken SlfToken::bullet(AbsVal V) {
  SlfToken T;
  T.K = Kind::Bullet;
  T.V = V;
  return T;
}

const AbsVal &SlfToken::val() const {
  assert(K != Kind::Top && "⊤ carries no value");
  return V;
}

SlfToken SlfToken::join(const SlfToken &O) const {
  if (K == Kind::Top || O.K == Kind::Top)
    return top();
  if (!(V == O.V))
    return top();
  // Same value: take the weaker of ◦/•.
  if (K == Kind::Bullet || O.K == Kind::Bullet)
    return bullet(V);
  return circ(V);
}

SlfToken SlfToken::invalidateReg(unsigned Reg) const {
  if (K == Kind::Top || V.isConst() || V.regIdx() != Reg)
    return *this;
  return top();
}

bool SlfToken::operator==(const SlfToken &O) const {
  if (K != O.K)
    return false;
  if (K == Kind::Top)
    return true;
  return V == O.V;
}

std::string SlfToken::str(const SymbolTable *Regs) const {
  switch (K) {
  case Kind::Circ:
    return "circ(" + V.str(Regs) + ")";
  case Kind::Bullet:
    return "bullet(" + V.str(Regs) + ")";
  case Kind::Top:
    return "top";
  }
  return "?";
}

//===----------------------------------------------------------------------===
// DseToken / expression faults
//===----------------------------------------------------------------------===

DseToken pseq::joinDse(DseToken A, DseToken B) {
  if (A == DseToken::Top || B == DseToken::Top)
    return DseToken::Top;
  if (A == DseToken::Bullet || B == DseToken::Bullet)
    return DseToken::Bullet;
  return DseToken::Circ;
}

const char *pseq::dseTokenName(DseToken T) {
  switch (T) {
  case DseToken::Circ:
    return "circ";
  case DseToken::Bullet:
    return "bullet";
  case DseToken::Top:
    return "top";
  }
  return "?";
}

bool pseq::exprMayFault(const Expr *E) {
  switch (E->kind()) {
  case Expr::Kind::Const:
  case Expr::Kind::Reg:
    return false;
  case Expr::Kind::Unary:
    return exprMayFault(E->lhs());
  case Expr::Kind::Binary:
    if (E->binOp() == BinOp::Div || E->binOp() == BinOp::Mod)
      return true;
    return exprMayFault(E->lhs()) || exprMayFault(E->rhs());
  }
  return true;
}

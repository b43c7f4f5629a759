//===- lang/Expr.cpp - Pure expressions -----------------------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "lang/Expr.h"

#include <cassert>

using namespace pseq;

const char *pseq::binOpName(BinOp Op) {
  switch (Op) {
  case BinOp::Add:
    return "+";
  case BinOp::Sub:
    return "-";
  case BinOp::Mul:
    return "*";
  case BinOp::Div:
    return "/";
  case BinOp::Mod:
    return "%";
  case BinOp::Eq:
    return "==";
  case BinOp::Ne:
    return "!=";
  case BinOp::Lt:
    return "<";
  case BinOp::Le:
    return "<=";
  case BinOp::Gt:
    return ">";
  case BinOp::Ge:
    return ">=";
  case BinOp::And:
    return "&&";
  case BinOp::Or:
    return "||";
  }
  return "?";
}

const char *pseq::unOpName(UnOp Op) {
  switch (Op) {
  case UnOp::Neg:
    return "-";
  case UnOp::Not:
    return "!";
  }
  return "?";
}

Value Expr::constVal() const {
  assert(K == Kind::Const && "not a constant");
  return ConstVal;
}

unsigned Expr::reg() const {
  assert(K == Kind::Reg && "not a register reference");
  return RegIdx;
}

UnOp Expr::unOp() const {
  assert(K == Kind::Unary && "not a unary expression");
  return UOp;
}

BinOp Expr::binOp() const {
  assert(K == Kind::Binary && "not a binary expression");
  return BOp;
}

const Expr *Expr::lhs() const {
  assert(K != Kind::Const && K != Kind::Reg && "leaf expression has no lhs");
  return Lhs;
}

const Expr *Expr::rhs() const {
  assert(K == Kind::Binary && "only binary expressions have an rhs");
  return Rhs;
}

int64_t pseq::applyBinOp(BinOp Op, int64_t L, int64_t R, bool &UB) {
  UB = false;
  switch (Op) {
  case BinOp::Add:
    return L + R;
  case BinOp::Sub:
    return L - R;
  case BinOp::Mul:
    return L * R;
  case BinOp::Div:
    if (R == 0) {
      UB = true;
      return 0;
    }
    return L / R;
  case BinOp::Mod:
    if (R == 0) {
      UB = true;
      return 0;
    }
    return L % R;
  case BinOp::Eq:
    return L == R;
  case BinOp::Ne:
    return L != R;
  case BinOp::Lt:
    return L < R;
  case BinOp::Le:
    return L <= R;
  case BinOp::Gt:
    return L > R;
  case BinOp::Ge:
    return L >= R;
  case BinOp::And:
    return (L != 0) && (R != 0);
  case BinOp::Or:
    return (L != 0) || (R != 0);
  }
  UB = true;
  return 0;
}

EvalResult Expr::eval(std::span<const Value> Regs) const {
  switch (K) {
  case Kind::Const:
    return EvalResult::ok(ConstVal);
  case Kind::Reg:
    assert(RegIdx < Regs.size() && "register index out of range");
    return EvalResult::ok(Regs[RegIdx]);
  case Kind::Unary: {
    EvalResult Sub = Lhs->eval(Regs);
    if (Sub.IsUB)
      return Sub;
    if (Sub.V.isUndef())
      return EvalResult::ok(Value::undef());
    int64_t V = Sub.V.get();
    return EvalResult::ok(Value::of(UOp == UnOp::Neg ? -V : (V == 0)));
  }
  case Kind::Binary: {
    EvalResult L = Lhs->eval(Regs);
    if (L.IsUB)
      return L;
    EvalResult R = Rhs->eval(Regs);
    if (R.IsUB)
      return R;
    // Division and modulo demand a defined, non-zero divisor: dividing by
    // undef is UB (the divisor could be frozen to zero).
    if (BOp == BinOp::Div || BOp == BinOp::Mod) {
      if (R.V.isUndef())
        return EvalResult::ub();
      if (R.V.get() == 0)
        return EvalResult::ub();
    }
    if (L.V.isUndef() || R.V.isUndef())
      return EvalResult::ok(Value::undef());
    bool UB = false;
    int64_t V = applyBinOp(BOp, L.V.get(), R.V.get(), UB);
    if (UB)
      return EvalResult::ub();
    return EvalResult::ok(Value::of(V));
  }
  }
  assert(false && "unknown expression kind");
  return EvalResult::ub();
}

void Expr::collectRegs(std::vector<bool> &Used) const {
  switch (K) {
  case Kind::Const:
    return;
  case Kind::Reg:
    if (RegIdx >= Used.size())
      Used.resize(RegIdx + 1, false);
    Used[RegIdx] = true;
    return;
  case Kind::Unary:
    Lhs->collectRegs(Used);
    return;
  case Kind::Binary:
    Lhs->collectRegs(Used);
    Rhs->collectRegs(Used);
    return;
  }
}

bool Expr::structurallyEquals(const Expr &O) const {
  if (K != O.K)
    return false;
  switch (K) {
  case Kind::Const:
    return ConstVal == O.ConstVal;
  case Kind::Reg:
    return RegIdx == O.RegIdx;
  case Kind::Unary:
    return UOp == O.UOp && Lhs->structurallyEquals(*O.Lhs);
  case Kind::Binary:
    return BOp == O.BOp && Lhs->structurallyEquals(*O.Lhs) &&
           Rhs->structurallyEquals(*O.Rhs);
  }
  return false;
}

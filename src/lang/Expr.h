//===- lang/Expr.h - Pure expressions ---------------------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Side-effect-free expressions over registers. Memory is never read by an
/// expression: loads are statements, exactly as in the paper's LTS where
/// reads are labeled transitions. Evaluation follows the LLVM-inspired
/// undef discipline of the paper (Remark 1): undef propagates through
/// arithmetic; dividing by zero or by undef is UB.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_LANG_EXPR_H
#define PSEQ_LANG_EXPR_H

#include "lang/Value.h"

#include <cstdint>
#include <span>
#include <vector>

namespace pseq {

/// Binary operators.
enum class BinOp {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  And,
  Or
};

/// Unary operators.
enum class UnOp { Neg, Not };

const char *binOpName(BinOp Op);
const char *unOpName(UnOp Op);

/// Result of evaluating an expression: a value, or UB (e.g. division by
/// zero), which drives the enclosing program state to ⊥.
struct EvalResult {
  bool IsUB = false;
  Value V;

  static EvalResult ub() { return {true, Value()}; }
  static EvalResult ok(Value V) { return {false, V}; }
};

/// The key to an Expr or Stmt constructor. Only a Program can make one, so
/// only a Program creates nodes, in place in its arenas.
class NodeKey {
  NodeKey() = default;
  friend class Program;
};

/// An arena-allocated expression node. Nodes are immutable and owned by a
/// Program; statements and other expressions reference them by pointer.
class Expr {
public:
  enum class Kind { Const, Reg, Unary, Binary };

private:
  Kind K;
  Value ConstVal;        // Const
  unsigned RegIdx = 0;   // Reg
  UnOp UOp = UnOp::Neg;  // Unary
  BinOp BOp = BinOp::Add; // Binary
  const Expr *Lhs = nullptr;
  const Expr *Rhs = nullptr;

  friend class Program;

public:
  Expr(Kind K, NodeKey) : K(K) {}

  Kind kind() const { return K; }

  Value constVal() const;
  unsigned reg() const;
  UnOp unOp() const;
  BinOp binOp() const;
  const Expr *lhs() const;
  const Expr *rhs() const;

  /// Evaluates over the register file \p Regs (indexed by register id).
  EvalResult eval(std::span<const Value> Regs) const;

  /// Adds every register read by this expression to \p Used.
  void collectRegs(std::vector<bool> &Used) const;

  /// Structural equality (used by optimizer tests).
  bool structurallyEquals(const Expr &O) const;
};

/// Applies \p Op to defined operands; \p UB is set for division/modulo by
/// zero. Exposed for reuse by constant folding in the optimizer.
int64_t applyBinOp(BinOp Op, int64_t L, int64_t R, bool &UB);

} // namespace pseq

#endif // PSEQ_LANG_EXPR_H

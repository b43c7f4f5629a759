//===- analysis/AbstractValue.h - Abstract domains of §4 --------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract values and tokens for the optimizer's analyses:
///
///  * AbsVal — what a store put in memory, when forwardable: a constant or
///    a register (invalidated when the register is reassigned).
///  * SlfToken — the store-to-load-forwarding domain of Fig. 3:
///    x ↦ ◦(v) (written, no release since), x ↦ •(v) (a release but no
///    release-acquire pair since), x ↦ ⊤.
///  * DseToken — the backward dead-store-elimination domain of Fig. 8b:
///    ◦ (overwritten, no acquire on the way), • (an acquire but no pair),
///    ⊤.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_ANALYSIS_ABSTRACTVALUE_H
#define PSEQ_ANALYSIS_ABSTRACTVALUE_H

#include "lang/Program.h"

#include <string>

namespace pseq {

/// A forwardable stored value: constant or register copy.
class AbsVal {
  bool IsConst = true;
  Value C;
  unsigned Reg = 0;

public:
  AbsVal() = default;
  static AbsVal constant(Value V);
  static AbsVal reg(unsigned R);

  bool isConst() const { return IsConst; }
  Value constVal() const;
  unsigned regIdx() const;

  /// \returns the AbsVal of a store's operand, if forwardable.
  static std::optional<AbsVal> ofExpr(const Expr *E);

  /// Builds the replacement expression in \p Dst.
  const Expr *materialize(Program &Dst) const;

  bool operator==(const AbsVal &O) const;
  std::string str(const SymbolTable *Regs = nullptr) const;
};

/// Fig. 3's per-location token.
class SlfToken {
public:
  enum class Kind { Circ, Bullet, Top };

private:
  Kind K = Kind::Top;
  AbsVal V;

public:
  SlfToken() = default;

  static SlfToken top() { return SlfToken(); }
  static SlfToken circ(AbsVal V);
  static SlfToken bullet(AbsVal V);

  Kind kind() const { return K; }
  bool isTop() const { return K == Kind::Top; }
  const AbsVal &val() const;

  /// Least upper bound under ◦(v) ⊑ •(v) ⊑ ⊤.
  SlfToken join(const SlfToken &O) const;

  /// Drops to ⊤ when the token tracks register \p Reg (reassignment).
  SlfToken invalidateReg(unsigned Reg) const;

  bool operator==(const SlfToken &O) const;
  std::string str(const SymbolTable *Regs = nullptr) const;
};

/// Fig. 8b's backward token (no value payload).
enum class DseToken { Circ, Bullet, Top };

/// Join under ◦ ⊑ • ⊑ ⊤.
DseToken joinDse(DseToken A, DseToken B);
const char *dseTokenName(DseToken T);

/// True when evaluating \p E can invoke UB (division/modulo); such
/// expressions must not be erased by DSE.
bool exprMayFault(const Expr *E);

} // namespace pseq

#endif // PSEQ_ANALYSIS_ABSTRACTVALUE_H

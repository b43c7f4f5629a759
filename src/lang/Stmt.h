//===- lang/Stmt.h - Statements of the toy WHILE language -------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The statement AST of the toy C-like concurrent language of §4. The
/// optimizer's analyses run over this structured form; execution goes
/// through a compiled bytecode (see lang/Instr.h) whose program counters
/// make machine states cheap to hash.
///
/// Beyond the paper's presented fragment (non-atomics plus relaxed and
/// release/acquire accesses), the AST carries the Coq-development
/// extensions: fences, atomic read-modify-writes, and a print system call.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_LANG_STMT_H
#define PSEQ_LANG_STMT_H

#include "lang/Expr.h"
#include "lang/Mode.h"

#include <vector>

namespace pseq {

/// An arena-allocated, immutable statement node.
class Stmt {
public:
  enum class Kind {
    Skip,   ///< no-op
    Assign, ///< r := e                        (silent)
    Load,   ///< r := x@mode                   (R^o(x,v))
    Store,  ///< x@mode := e                   (W^o(x,v))
    Cas,    ///< r := cas@modes(x, e_exp, e_new); r gets the old value
    Fadd,   ///< r := fadd@modes(x, e);        r gets the old value
    Fence,  ///< fence@mode
    Seq,    ///< s1; s2; ...
    If,     ///< if (e) { s1 } else { s2 }     (branch on undef is UB)
    While,  ///< while (e) { s }
    Choose, ///< r := choose                   (choose(v) label)
    Freeze, ///< r := freeze(e): choose(v) if e is undef, else silent
    Print,  ///< print(e)                      (observable system call)
    Return, ///< return e                      (normal termination)
    Abort   ///< UB (⊥), e.g. the paper's "b := 1/0" idiom
  };

private:
  Kind K;
  unsigned Reg = 0;              // Assign, Load, Cas, Fadd, Choose, Freeze
  unsigned Loc = 0;              // Load, Store, Cas, Fadd
  ReadMode RM = ReadMode::NA;    // Load, Cas, Fadd
  WriteMode WM = WriteMode::NA;  // Store, Cas, Fadd
  FenceMode FM = FenceMode::SC;  // Fence
  const Expr *E = nullptr;       // Assign, Store, If/While cond, Freeze,
                                 // Print, Return, Fadd operand
  const Expr *E2 = nullptr;      // Cas expected
  const Expr *E3 = nullptr;      // Cas new
  const Stmt *S1 = nullptr;      // If then, While body
  const Stmt *S2 = nullptr;      // If else
  std::vector<const Stmt *> Body; // Seq children

  friend class Program;

public:
  Stmt(Kind K, NodeKey) : K(K) {}

  Kind kind() const { return K; }

  unsigned reg() const { return Reg; }
  unsigned loc() const { return Loc; }
  ReadMode readMode() const { return RM; }
  WriteMode writeMode() const { return WM; }
  FenceMode fenceMode() const { return FM; }
  const Expr *expr() const { return E; }
  const Expr *casExpected() const { return E2; }
  const Expr *casNew() const { return E3; }
  const Stmt *thenStmt() const { return S1; }
  const Stmt *elseStmt() const { return S2; }
  const Stmt *body() const { return S1; }
  const std::vector<const Stmt *> &seq() const { return Body; }
};

/// \returns a printable name for a statement kind.
const char *stmtKindName(Stmt::Kind K);

/// Deep structural equality of two statement trees (register and location
/// indices compared verbatim). Used by optimizer and parser round-trip tests.
bool stmtStructurallyEquals(const Stmt *A, const Stmt *B);

} // namespace pseq

#endif // PSEQ_LANG_STMT_H

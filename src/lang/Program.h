//===- lang/Program.h - Programs, arenas, bytecode compiler -----*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Program owns the shared-memory layout (locations, each declared atomic
/// or non-atomic — the paper's Loc_at / Loc_na split, §2 "Concurrency
/// constructs"), one statement tree per thread, and the arenas backing all
/// Expr/Stmt nodes. Setting a thread body compiles it to the bytecode the
/// machines execute.
///
/// The SEQ refinement checkers compare two Programs; they require identical
/// layouts (same location names and atomicity in the same order), which
/// `sameLayout` checks. The optimizer preserves layouts by construction.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_LANG_PROGRAM_H
#define PSEQ_LANG_PROGRAM_H

#include "lang/Instr.h"
#include "lang/Stmt.h"
#include "support/LocSet.h"
#include "support/NodePool.h"
#include "support/Symbol.h"

#include <deque>
#include <memory>
#include <vector>

namespace pseq {

/// Summary of the shared-memory accesses a thread performs, used to bound
/// the state enumeration of the checkers ("footprint" in DESIGN.md).
struct AccessSummary {
  LocSet NaAccessed;     ///< non-atomic locations read or written
  LocSet NaWritten;      ///< non-atomic locations written
  LocSet AtomicAccessed; ///< atomic locations accessed
  bool HasAcquire = false;
  bool HasRelease = false;
};

/// A compilation unit: memory layout plus one or more threads.
class Program {
public:
  /// One thread: its registers, structured body, and compiled code.
  struct ThreadCode {
    SymbolTable Regs;
    const Stmt *Body = nullptr;
    PoolVector<Instr> Code;
  };

private:
  SymbolTable Locs;
  std::vector<bool> AtomicFlag;
  /// Node arenas: chunked deques from the node pool, so a node never
  /// moves and a chunk of nodes costs one allocation.
  std::deque<Expr, PoolAllocator<Expr>> ExprArena;
  std::deque<Stmt, PoolAllocator<Stmt>> StmtArena;
  std::vector<std::unique_ptr<ThreadCode>> Threads;

  Expr *newExpr(Expr::Kind K);
  Stmt *newStmt(Stmt::Kind K);

public:
  Program() = default;
  Program(const Program &) = delete;
  Program &operator=(const Program &) = delete;

  //===--------------------------------------------------------------------===
  // Memory layout
  //===--------------------------------------------------------------------===

  /// Declares (or re-looks-up) location \p Name. Redeclaring with a
  /// different atomicity is a programming error.
  unsigned declareLoc(const std::string &Name, bool Atomic);
  std::optional<unsigned> lookupLoc(const std::string &Name) const {
    return Locs.lookup(Name);
  }
  unsigned numLocs() const { return Locs.size(); }
  bool isAtomicLoc(unsigned Loc) const;
  const std::string &locName(unsigned Loc) const { return Locs.name(Loc); }
  const std::vector<std::string> &locNames() const { return Locs.names(); }
  /// All declared non-atomic locations.
  LocSet naLocs() const;

  //===--------------------------------------------------------------------===
  // Threads
  //===--------------------------------------------------------------------===

  unsigned addThread();
  unsigned numThreads() const { return static_cast<unsigned>(Threads.size()); }
  ThreadCode &thread(unsigned Tid);
  const ThreadCode &thread(unsigned Tid) const;

  /// Sets (and compiles) a thread's body. The body must have been built
  /// from this Program's arenas.
  void setThreadBody(unsigned Tid, const Stmt *Body);

  /// \returns the access summary of a (compiled) thread.
  AccessSummary accessSummary(unsigned Tid) const;

  //===--------------------------------------------------------------------===
  // Expression factories (arena-owned)
  //===--------------------------------------------------------------------===

  const Expr *exprConst(Value V);
  const Expr *exprConst(int64_t V) { return exprConst(Value::of(V)); }
  const Expr *exprReg(unsigned Reg);
  const Expr *exprUn(UnOp Op, const Expr *Sub);
  const Expr *exprBin(BinOp Op, const Expr *L, const Expr *R);

  //===--------------------------------------------------------------------===
  // Statement factories (arena-owned)
  //===--------------------------------------------------------------------===

  const Stmt *stmtSkip();
  const Stmt *stmtAssign(unsigned Reg, const Expr *E);
  const Stmt *stmtLoad(unsigned Reg, unsigned Loc, ReadMode M);
  const Stmt *stmtStore(unsigned Loc, const Expr *E, WriteMode M);
  const Stmt *stmtCas(unsigned Reg, unsigned Loc, const Expr *Expected,
                      const Expr *New, ReadMode RM, WriteMode WM);
  const Stmt *stmtFadd(unsigned Reg, unsigned Loc, const Expr *E, ReadMode RM,
                       WriteMode WM);
  const Stmt *stmtFence(FenceMode M);
  const Stmt *stmtSeq(std::vector<const Stmt *> Stmts);
  const Stmt *stmtIf(const Expr *Cond, const Stmt *Then, const Stmt *Else);
  const Stmt *stmtWhile(const Expr *Cond, const Stmt *Body);
  const Stmt *stmtChoose(unsigned Reg);
  const Stmt *stmtFreeze(unsigned Reg, const Expr *E);
  const Stmt *stmtPrint(const Expr *E);
  const Stmt *stmtReturn(const Expr *E);
  const Stmt *stmtAbort();

  /// Deep-copies \p S (built in \p Src) into this program's arena. Register
  /// and location indices are copied verbatim, so the destination must use
  /// the same layout/register interning order (the optimizer guarantees
  /// this by replaying declarations).
  const Stmt *cloneStmt(const Stmt *S);
  const Expr *cloneExpr(const Expr *E);
};

/// \returns true when two programs declare the same locations, with the same
/// atomicity, in the same order — the precondition for comparing their
/// machines' states directly.
bool sameLayout(const Program &A, const Program &B);

/// Deep-copies a whole program (layout, registers, bodies). The optimizer
/// and the adequacy harness start from clones and rewrite threads in place.
std::unique_ptr<Program> cloneProgram(const Program &P);

/// Compiles a statement tree to bytecode (exposed for tests).
PoolVector<Instr> compileStmt(const Stmt *Body);

} // namespace pseq

#endif // PSEQ_LANG_PROGRAM_H

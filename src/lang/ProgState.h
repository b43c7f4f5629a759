//===- lang/ProgState.h - The program LTS -----------------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The labeled-transition-system view of a thread's program (§2 "Program
/// representation in the paper"). A program state σ is (pc, register file);
/// transitions are silent, choose(v), R^o(x,v), W^o(x,v), plus the
/// extension labels (RMW, fence, print). States terminate as return(v) or
/// in the error state ⊥ (UB).
///
/// The memory machines drive this LTS: `pending()` reports the next action
/// without advancing, and the `apply*` methods advance once the machine has
/// resolved the action (e.g. picked the value a read returns).
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_LANG_PROGSTATE_H
#define PSEQ_LANG_PROGSTATE_H

#include "lang/Program.h"
#include "support/NodePool.h"

#include <cstdint>

namespace pseq {

/// A thread-local program state σ.
class ProgState {
public:
  enum class Status {
    Running, ///< has a pending transition
    Done,    ///< σ = return(v)
    Error    ///< σ = ⊥ (undefined behavior)
  };

  /// The next action of a running state. For Read/Rmw the machine supplies
  /// the value read; for Choose it supplies the chosen value.
  struct Pending {
    enum class Kind {
      Silent, ///< assign/jmp/br/defined-freeze — no memory interaction
      Choose, ///< choose(v): nondeterministic choice (incl. undef freeze)
      Read,   ///< R^RM(Loc, ·)
      Write,  ///< W^WM(Loc, WVal)
      Rmw,    ///< atomic read-modify-write on Loc (extension)
      Fence,  ///< fence (extension)
      Print,  ///< system call print(WVal) (extension)
      Fail    ///< this step invokes UB (e.g. div-by-zero, branch on undef)
    };
    Kind K = Kind::Silent;
    ReadMode RM = ReadMode::NA;
    WriteMode WM = WriteMode::NA;
    FenceMode FM = FenceMode::SC;
    unsigned Loc = 0;
    Value WVal; ///< value written / printed
  };

private:
  unsigned Pc = 0;
  PoolVector<Value> Regs;
  Status St = Status::Running;
  Value RetVal;

public:
  /// \returns the initial state of thread \p Tid of \p P: pc 0, all
  /// registers zero (the paper's "same initial register file").
  static ProgState initial(const Program &P, unsigned Tid);

  Status status() const { return St; }
  bool isError() const { return St == Status::Error; }
  bool isDone() const { return St == Status::Done; }
  Value retVal() const;
  unsigned pc() const { return Pc; }
  const PoolVector<Value> &regs() const { return Regs; }

  /// Computes the next action; only valid on Running states.
  Pending pending(const Program &P, unsigned Tid) const;

  /// Advances over a Silent or Fail pending action.
  void applySilent(const Program &P, unsigned Tid);

  /// Resolves a pending Read with the value \p V the machine provides.
  void applyRead(const Program &P, unsigned Tid, Value V);

  /// Resolves a pending Choose with \p V.
  void applyChoose(const Program &P, unsigned Tid, Value V);

  /// Advances over a pending Write, Fence, or Print.
  void applyWrite(const Program &P, unsigned Tid);
  void applyFence(const Program &P, unsigned Tid);
  void applyPrint(const Program &P, unsigned Tid);

  /// Resolves a pending Rmw given the \p Old value read from memory.
  /// Outputs whether a write is performed (CAS can fail) and the written
  /// value. A CAS comparison against undef invokes UB (branching on undef).
  void applyRmw(const Program &P, unsigned Tid, Value Old, bool &DoesWrite,
                Value &NewVal);

  /// Forces the state to ⊥ (used by machines for racy non-atomic writes).
  void setError() { St = Status::Error; }

  bool operator==(const ProgState &O) const;
  uint64_t hash() const;
};

} // namespace pseq

#endif // PSEQ_LANG_PROGSTATE_H

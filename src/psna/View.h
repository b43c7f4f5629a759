//===- psna/View.h - Thread and message views -------------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Views of the promising semantics (Fig. 5): V ∈ (Loc → Time) ∪ {⊥}. A
/// view maps every location to the latest timestamp the thread (or
/// message) has observed. The paper's presented fragment uses a single
/// current view per thread; message views are optional (⊥ for non-atomic
/// messages), represented here as std::optional<View>.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_PSNA_VIEW_H
#define PSEQ_PSNA_VIEW_H

#include "support/Rational.h"

#include <optional>
#include <string>

namespace pseq {

/// A total view Loc → Time (the ⊥ view is modeled by std::optional at use
/// sites; non-⊥ views default every location to timestamp 0).
///
/// Every thread and every atomic message carries a view, so the
/// timestamps of a view over at most InlineLocs locations live inline
/// rather than in a heap block of their own; wider views take a block from
/// the node pool (support/NodePool.h).
class View {
  static constexpr unsigned InlineLocs = 4;
  unsigned N = 0;
  Rational Inline[InlineLocs];
  Rational *Heap = nullptr; ///< N pooled timestamps; set iff N > InlineLocs

  explicit View(unsigned NumLocs);
  /// Returns Heap to the pool.
  void release();
  Rational *data() { return Heap ? Heap : Inline; }
  const Rational *data() const { return Heap ? Heap : Inline; }

public:
  View() = default;
  View(const View &O);
  View(View &&O) noexcept;
  View &operator=(const View &O);
  View &operator=(View &&O) noexcept;
  ~View() { release(); }

  /// The initial view: timestamp 0 everywhere.
  static View zero(unsigned NumLocs);

  /// The view [x ↦ t]: zero everywhere except \p Loc.
  static View single(unsigned NumLocs, unsigned Loc, Rational Time);

  unsigned numLocs() const { return N; }
  Rational get(unsigned Loc) const;
  void set(unsigned Loc, Rational Time);

  /// Pointwise join V ⊔ V'.
  View joined(const View &O) const;

  /// Pointwise ≤.
  bool leq(const View &O) const;

  bool operator==(const View &O) const;
  bool operator!=(const View &O) const { return !(*this == O); }
  uint64_t hash() const;
  std::string str() const;
};

/// Message views: ⊥ or a total view.
using MsgView = std::optional<View>;

/// Join of a view with a message view (⊥ is the identity).
View joinMsgView(const View &V, const MsgView &MV);

} // namespace pseq

#endif // PSEQ_PSNA_VIEW_H

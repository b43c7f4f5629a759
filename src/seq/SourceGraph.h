//===- seq/SourceGraph.h - Interned source transition graph -----*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The source side of a SEQ refinement check, expanded at most once. Two
/// source-side facts do not depend on the target behavior being matched:
/// the SEQ transitions of a source state, and whether the ∀-oracle game is
/// won from it. A SourceGraph interns every reached source SeqState to a
/// dense id and stores each state's transitions (labels plus successor id,
/// in SeqMachine::successors() order) the first time they are asked for,
/// so the ⊑w matcher and the oracle game memoize on small integer ids and
/// every target behavior of an initial state reuses the same expansion.
/// The Fig. 6 simulation keeps one graph per machine, target included.
///
/// A graph is scoped to one initial state of one check (see DESIGN.md
/// implementation notes 11 and 12): its contents, and so every result
/// derived from it, never depend on which worker or in which order other
/// initial states ran. Its nodes, edge lists and hash chains come from the
/// node pool (support/NodePool.h, DESIGN.md note 10).
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_SEQ_SOURCEGRAPH_H
#define PSEQ_SEQ_SOURCEGRAPH_H

#include "seq/SeqMachine.h"
#include "support/NodePool.h"

#include <deque>

namespace pseq {

/// Reached source states of one machine, each expanded at most once.
class SourceGraph {
public:
  /// One SEQ transition with its successor interned.
  struct Edge {
    SeqLabels Labels;
    unsigned Next;
  };
  using Edges = PoolVector<Edge>;

  explicit SourceGraph(const SeqMachine &M) : M(M) {}

  /// \returns the id of \p S, interning it on first sight (moved in, so a
  /// successor state is never copied). New states are charged to the
  /// machine's resource guard, if any.
  unsigned intern(SeqState S);

  const SeqState &state(unsigned Id) const { return Nodes[Id].S; }

  /// The transitions of state \p Id, in SeqMachine::successors() order;
  /// the machine is asked once per state. The reference stays valid for
  /// the graph's lifetime.
  const Edges &edges(unsigned Id);

  const SeqMachine &machine() const { return M; }

  /// Interned states so far.
  unsigned size() const { return static_cast<unsigned>(Nodes.size()); }

private:
  static constexpr unsigned NoId = ~0u;

  struct Node {
    SeqState S;
    Edges Out;
    bool Expanded = false;
    unsigned NextSameHash = NoId; ///< chain of ids sharing S.hash()
  };

  const SeqMachine &M;
  /// A deque: growth never moves a node.
  std::deque<Node, PoolAllocator<Node>> Nodes;
  PoolMap<uint64_t, unsigned> FirstByHash;
};

} // namespace pseq

#endif // PSEQ_SEQ_SOURCEGRAPH_H

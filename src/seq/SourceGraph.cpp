//===- seq/SourceGraph.cpp - Interned source transition graph -------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "seq/SourceGraph.h"

#include "guard/Guard.h"

using namespace pseq;

unsigned SourceGraph::intern(SeqState S) {
  auto [It, Inserted] = FirstByHash.try_emplace(S.hash(), size());
  if (!Inserted) {
    unsigned Id = It->second;
    for (;;) {
      if (Nodes[Id].S == S)
        return Id;
      if (Nodes[Id].NextSameHash == NoId)
        break;
      Id = Nodes[Id].NextSameHash;
    }
    Nodes[Id].NextSameHash = size();
  }
  if (guard::ResourceGuard *G = M.config().Guard)
    G->charge(sizeof(Node) + sizeof(uint64_t) +
              (S.Mem.size() + S.Prog.regs().size()) * sizeof(Value));
  Nodes.push_back(Node{std::move(S), {}, false, NoId});
  return size() - 1;
}

const SourceGraph::Edges &SourceGraph::edges(unsigned Id) {
  if (Nodes[Id].Expanded)
    return Nodes[Id].Out;
  SeqTransitions Succs = M.successors(Nodes[Id].S);
  Edges Out;
  Out.reserve(Succs.size());
  for (SeqTransition &T : Succs) {
    unsigned Next = intern(std::move(T.Next));
    Out.push_back(Edge{std::move(T.Labels), Next});
  }
  Nodes[Id].Out = std::move(Out);
  Nodes[Id].Expanded = true;
  return Nodes[Id].Out;
}

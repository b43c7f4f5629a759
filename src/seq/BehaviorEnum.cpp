//===- seq/BehaviorEnum.cpp - Exhaustive behavior enumeration -------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "seq/BehaviorEnum.h"

#include "exec/ThreadPool.h"
#include "guard/Guard.h"
#include "obs/Telemetry.h"

#include <algorithm>
#include <unordered_set>

using namespace pseq;

void BehaviorSet::buildIndex() const {
  RefineIndex.reserve(All.size());
  for (uint32_t I = 0, E = static_cast<uint32_t>(All.size()); I != E; ++I) {
    if (All[I].Kind == SeqBehavior::End::Bottom)
      BottomSources.push_back(I);
    else
      RefineIndex.emplace(All[I].refinementKey(), I);
  }
  Indexed = true;
}

bool BehaviorSet::covers(const SeqBehavior &Tgt, LocSet Universe) const {
  if (!Indexed)
    buildIndex();
  // ⟨tr_tgt · tr, r⟩ ⊑ ⟨tr_src, ⊥⟩ matches by trace *prefix*, so ⊥-ended
  // sources share no key with their targets; they stay in a linear side
  // list (short in practice — one per distinct UB prefix).
  for (uint32_t I : BottomSources)
    if (Tgt.refines(All[I], Universe))
      return true;
  // Every non-⊥ source a target can refine agrees with it on all the
  // equality-pinned label components, i.e. shares its refinement key.
  auto [B, E] = RefineIndex.equal_range(Tgt.refinementKey());
  for (auto It = B; It != E; ++It)
    if (Tgt.refines(All[It->second], Universe))
      return true;
  return false;
}

namespace {

/// Hash and equality for the dedup set, which holds indices into the
/// enumeration's result vector: each unique behavior is stored once, and a
/// candidate behavior is looked up directly (transparent lookup).
struct IndexHash {
  using is_transparent = void;
  const std::vector<SeqBehavior> *All;
  size_t operator()(const SeqBehavior &B) const {
    return static_cast<size_t>(B.hash());
  }
  size_t operator()(uint32_t I) const { return (*this)((*All)[I]); }
};

struct IndexEq {
  using is_transparent = void;
  const std::vector<SeqBehavior> *All;
  const SeqBehavior &get(const SeqBehavior &B) const { return B; }
  const SeqBehavior &get(uint32_t I) const { return (*All)[I]; }
  template <typename L, typename R>
  bool operator()(const L &A, const R &B) const {
    return get(A) == get(B);
  }
};

/// Run-local tallies: plain fields so the hot path costs one increment each
/// whether or not telemetry is attached; folded into the registry once per
/// enumerateBehaviors call.
struct EnumTallies {
  uint64_t Expanded = 0;
  uint64_t Emitted = 0;
  uint64_t DedupHits = 0;
  uint64_t TruncStep = 0;
  uint64_t TruncCap = 0;
  unsigned MaxDepth = 0;
};

/// Explicit-stack DFS over the SEQ transition tree, emitting one behavior
/// per visited node (Def 2.1).
class DfsEnumerator {
  const SeqMachine &M;
  guard::ResourceGuard *Guard;
  BehaviorSet Result;
  /// Indices into Result.All of the behaviors emitted so far.
  std::unordered_set<uint32_t, IndexHash, IndexEq> Seen;
  std::vector<SeqEvent> Trace;
  EnumTallies T;

  /// One DFS level: the successor list of some expanded node, the next
  /// child to explore, and how many labels the *previous* child pushed
  /// (undone when control returns to this level).
  struct Frame {
    SeqTransitions Succs;
    size_t Idx = 0;
    size_t PrevPushed = 0;
    unsigned StepsLeft = 0;
  };

public:
  explicit DfsEnumerator(const SeqMachine &M)
      : M(M), Guard(M.config().Guard),
        Seen(0, IndexHash{&Result.All}, IndexEq{&Result.All}) {}

  const EnumTallies &tallies() const { return T; }
  BehaviorSet take() { return std::move(Result); }

  /// DFS from \p Start, visiting nodes in exactly the order the recursive
  /// formulation would (parent, then children left to right), on an
  /// explicit frame stack so deep trees cannot exhaust the call stack.
  void explore(const SeqState &Start) {
    unsigned StepsLeft = M.config().StepBudget;
    if (!visitNode(Start, StepsLeft))
      return;
    std::vector<Frame> Stack;
    Stack.push_back(Frame{M.successors(Start), 0, 0, StepsLeft});
    while (!Stack.empty()) {
      Frame &F = Stack.back();
      Trace.resize(Trace.size() - F.PrevPushed);
      F.PrevPushed = 0;
      if (F.Idx == F.Succs.size()) {
        Stack.pop_back();
        continue;
      }
      SeqTransition &Tr = F.Succs[F.Idx++];
      F.PrevPushed = Tr.Labels.size();
      for (SeqEvent &E : Tr.Labels)
        Trace.push_back(std::move(E));
      unsigned Left = F.StepsLeft - 1;
      if (visitNode(Tr.Next, Left)) {
        // Compute successors before push_back: growing the stack
        // invalidates F and Tr.
        SeqTransitions Succs = M.successors(Tr.Next);
        Stack.push_back(Frame{std::move(Succs), 0, 0, Left});
      }
    }
  }

private:
  void emit(SeqBehavior B) {
    // Dedup *before* the cap check: a behavior already in the set is a
    // dedup hit, never a capped emission. (Checking the cap first made it
    // fire early by however many duplicates arrived once the set was
    // full, and misattributed the truncation.)
    if (Seen.find(B) != Seen.end()) {
      ++T.DedupHits;
      return;
    }
    if (Seen.size() >= M.config().MaxBehaviors) {
      ++T.TruncCap;
      noteTruncation(Result.Cause, TruncationCause::BehaviorCap);
      return;
    }
    ++T.Emitted;
    if (Guard)
      // Retained once, in All, plus its index in Seen.
      Guard->charge(sizeof(SeqBehavior) + B.Trace.size() * sizeof(SeqEvent) +
                    B.Mem.size() * sizeof(Value) + sizeof(uint32_t));
    Result.All.push_back(std::move(B));
    Seen.insert(static_cast<uint32_t>(Result.All.size() - 1));
  }

  /// Emits \p S's behavior under the current trace. \returns true when the
  /// node's successors should be explored.
  bool visitNode(const SeqState &S, unsigned StepsLeft) {
    if (Guard) {
      // One checkpoint per expanded node: a tripped guard stops the DFS
      // from growing (frames unwind without emitting or expanding).
      TruncationCause C = Guard->checkpoint();
      if (C != TruncationCause::None) {
        noteTruncation(Result.Cause, C);
        return false;
      }
    }
    ++T.Expanded;
    T.MaxDepth = std::max(T.MaxDepth, M.config().StepBudget - StepsLeft);
    SeqBehavior B;
    B.Trace = Trace;
    // Every reachable state generates ⟨tr, prt(F)⟩ — including states that
    // could also terminate (Def 2.1's "otherwise" applies only to
    // non-terminal states, so skip those).
    if (S.isBottom()) {
      B.Kind = SeqBehavior::End::Bottom;
      emit(std::move(B));
      return false;
    }
    if (S.isTerminated()) {
      B.Kind = SeqBehavior::End::Term;
      B.RetVal = S.Prog.retVal();
      B.F = S.Written;
      B.Mem.assign(S.Mem.begin(), S.Mem.end());
      emit(std::move(B));
      return false;
    }
    B.Kind = SeqBehavior::End::Partial;
    B.F = S.Written;
    emit(std::move(B));
    if (StepsLeft == 0) {
      ++T.TruncStep;
      noteTruncation(Result.Cause, TruncationCause::StepBudget);
      return false;
    }
    return true;
  }
};

void foldTallies(obs::Telemetry *Telem, const EnumTallies &T) {
  if (!Telem)
    return;
  obs::ScopedTally Tally(&Telem->Counters);
  Tally.slot("seq.enum.runs") += 1;
  Tally.slot("seq.enum.states_expanded") += T.Expanded;
  Tally.slot("seq.enum.behaviors_emitted") += T.Emitted;
  Tally.slot("seq.enum.dedup_hits") += T.DedupHits;
  Tally.slot("seq.enum.trunc_step_budget") += T.TruncStep;
  Tally.slot("seq.enum.trunc_behavior_cap") += T.TruncCap;
  Telem->Counters.maxGauge("seq.enum.max_depth", T.MaxDepth);
}

} // namespace

BehaviorSet pseq::enumerateBehaviors(const SeqMachine &M,
                                     const SeqState &Init) {
  obs::Telemetry *Telem = M.config().Telem;
  obs::ScopedSpan Span(Telem ? Telem->Spans : nullptr, "seq.enum");
  DfsEnumerator E(M);
  E.explore(Init);
  BehaviorSet R = E.take();
  std::sort(R.All.begin(), R.All.end(), behaviorLess);
  // A tripped guard always surfaces in the set's cause, even when the trip
  // happened after the last node this enumeration visited (e.g. another
  // worker of a batch sharing the guard tripped it).
  if (guard::ResourceGuard *G = M.config().Guard; G && G->stopped())
    noteTruncation(R.Cause, G->cause());
  foldTallies(Telem, E.tallies());
  if (Telem)
    Telem->Counters.recordHist("seq.enum.behavior_set", R.All.size());
  return R;
}

std::vector<BehaviorSet>
pseq::enumerateBehaviorsBatch(const SeqMachine &M,
                              const std::vector<SeqState> &Inits) {
  // Initial states fan out across the pool, each enumerated by one DFS
  // against its worker's machine copy (same program, that worker's
  // telemetry), so every per-init result is the one-worker result. None is
  // drained on a guard trip: each enumeration polls the guard and comes
  // back truncated, as in a one-worker run.
  unsigned N = exec::fanOutWidth(M.config().NumThreads, Inits.size());
  obs::WorkerTelemetry WTelem(M.config().Telem, N);
  std::vector<SeqMachine> Machines;
  Machines.reserve(N);
  for (unsigned W = 0; W != N; ++W) {
    SeqConfig WCfg = M.config();
    WCfg.Telem = WTelem[W];
    Machines.emplace_back(M.program(), M.tid(), std::move(WCfg));
  }
  std::vector<BehaviorSet> Out(Inits.size());
  exec::parallelFor(N, Inits.size(), [&](size_t I, unsigned W) {
    Out[I] = enumerateBehaviors(Machines[W], Inits[I]);
  });
  WTelem.merge();
  return Out;
}

std::vector<SeqState> pseq::enumerateInitialStates(const SeqMachine &M) {
  const SeqConfig &Cfg = M.config();
  PoolVector<Value> Vals = M.readValues(/*IncludeUndef=*/true);

  // All memories over the universe (zero elsewhere), one row of NumLocs
  // values each; the last universe location varies fastest.
  const size_t NumLocs = M.program().numLocs();
  size_t NumMems = 1;
  PoolVector<Value> Mems(NumLocs, Value::of(0));
  for (unsigned Loc : Cfg.Universe.members()) {
    PoolVector<Value> Next;
    Next.reserve(Mems.size() * Vals.size());
    for (size_t Row = 0; Row != NumMems; ++Row) {
      for (Value V : Vals) {
        auto Base = Mems.begin() + Row * NumLocs;
        Next.insert(Next.end(), Base, Base + NumLocs);
        Next[Next.size() - NumLocs + Loc] = V;
      }
    }
    Mems = std::move(Next);
    NumMems *= Vals.size();
  }

  std::vector<LocSet> Subsets = Cfg.Universe.subsets();
  std::vector<SeqState> Out;
  Out.reserve(Subsets.size() * Subsets.size() * NumMems);
  for (LocSet P : Subsets)
    for (LocSet F : Subsets)
      for (size_t Row = 0; Row != NumMems; ++Row)
        Out.push_back(M.initial(
            P, F, std::span(Mems).subspan(Row * NumLocs, NumLocs)));
  return Out;
}

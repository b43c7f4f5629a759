//===- seq/BehaviorEnum.cpp - Exhaustive behavior enumeration -------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "seq/BehaviorEnum.h"

#include "exec/ThreadPool.h"
#include "exec/WorkDeque.h"
#include "guard/Guard.h"
#include "memo/MemoContext.h"
#include "obs/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
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

struct BehaviorHash {
  size_t operator()(const SeqBehavior &B) const {
    return static_cast<size_t>(B.hash());
  }
};

/// Clock for the timing histograms (`.us`-suffixed keys, which the
/// determinism checks skip).
uint64_t nowMonotonicNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

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
  // Memoization (zero unless a MemoContext is attached):
  uint64_t MemoHits = 0;
  uint64_t MemoMisses = 0;
  uint64_t Pruned = 0; ///< states not re-expanded thanks to suffix hits
};

/// One attempted emission in a memoized subtree, relative to the subtree
/// root: the trace suffix below the root plus the behavior payload.
/// AtBudget marks prt-nodes that also charged the step-budget truncation.
struct SeqSuffixAttempt {
  std::vector<SeqEvent> Suffix;
  SeqBehavior::End Kind = SeqBehavior::End::Partial;
  Value RetVal;           // Term only
  LocSet F;               // Term and Partial
  std::vector<Value> Mem; // Term only
  bool AtBudget = false;  // Partial with StepsLeft == 0
};

/// A completed subtree summary, keyed by (machine fingerprint, canonical
/// state fingerprint, steps of budget left). Replaying the attempt stream
/// through emit() in DFS order reproduces the unmemoized traversal's
/// emissions exactly — Emitted, DedupHits, TruncStep, TruncCap, and the
/// cap ordering included — because emission attempts are a pure function
/// of (machine, state, budget), and dedup/cap outcomes depend only on the
/// emissions that came before. Subtrees interrupted by a tripped guard
/// are never recorded (their streams would be incomplete).
struct SeqSuffixRec {
  std::vector<SeqSuffixAttempt> Attempts;
  unsigned RelMaxDepth = 0;    ///< max steps below the root over attempts
  uint64_t SubtreeStates = 0;  ///< nodes the subtree expanded (incl. virtual)
};

/// A frontier subtree handed to a pool worker: explore \p State (reached
/// via \p Trace) with \p StepsLeft transitions of budget remaining.
struct EnumTask {
  SeqState State;
  std::vector<SeqEvent> Trace;
  unsigned StepsLeft = 0;
};

/// Explicit-stack DFS over the SEQ transition tree, emitting one behavior
/// per visited node (Def 2.1). Owns a local Seen set, so several
/// enumerators can run concurrently without sharing anything but the
/// optional approximate unique-behavior counter.
class DfsEnumerator {
  const SeqMachine &M;
  /// Cross-worker count of unique emissions, checked against MaxBehaviors.
  /// Null (the sequential / merge enumerator) uses the exact local
  /// Seen.size() instead.
  std::atomic<uint64_t> *SharedUnique;
  guard::ResourceGuard *Guard;
  /// Suffix memo (null = off): set only when the config carries a context
  /// with caching enabled.
  memo::MemoContext *Memo = nullptr;
  memo::Fp128 MachineFp;
  BehaviorSet Result;
  std::unordered_set<SeqBehavior, BehaviorHash> Seen;
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

  /// An in-progress SeqSuffixRec for the node at trace length BaseLen,
  /// aligned 1:1 with explore()'s frame stack (plus a transient frame
  /// around leaf visits). Every emission attempt below the node lands in
  /// every active frame; a frame past its attempt cap overflows and is
  /// discarded at exitNode().
  struct RecFrame {
    memo::Fp128 Key;
    size_t BaseLen = 0;
    unsigned StepsAtNode = 0;
    uint64_t StartVirtual = 0;
    SeqSuffixRec Rec;
    bool Overflow = false;
  };
  std::vector<RecFrame> RecStack;
  /// Caps recording work: attempts stored per frame, and total attempt
  /// appends per enumeration (suffix copies are O(depth) each).
  static constexpr size_t MaxAttemptsPerFrame = 512;
  size_t AppendBudget = size_t(1) << 17;

public:
  explicit DfsEnumerator(const SeqMachine &M,
                         std::atomic<uint64_t> *SharedUnique = nullptr)
      : M(M), SharedUnique(SharedUnique), Guard(M.config().Guard) {
    if (memo::MemoContext *MC = M.config().Memo; MC && MC->options().Cache) {
      Memo = MC;
      MachineFp = machineFingerprint();
    }
  }

  EnumTallies &tallies() { return T; }
  BehaviorSet &result() { return Result; }
  BehaviorSet take() { return std::move(Result); }

private:
  /// Everything the transition relation depends on: the program text, the
  /// thread, the value domain, and the universe. StepBudget is excluded —
  /// the remaining budget is part of each suffix key — and MaxBehaviors /
  /// NumThreads are excluded because attempt streams are pre-cap and
  /// scheduling-independent.
  memo::Fp128 machineFingerprint() const {
    memo::Fp128 F = memo::fpSeed(/*Tag=*/0x7365716d /* "seqm" */);
    F = memo::fpCombine(F, memo::fingerprintProgram(M.program()));
    memo::fpMix(F, M.tid());
    const SeqConfig &Cfg = M.config();
    const std::vector<int64_t> &Vals = Cfg.Domain.values();
    memo::fpMix(F, Vals.size());
    for (int64_t V : Vals)
      memo::fpMix(F, static_cast<uint64_t>(V));
    memo::fpMix(F, Cfg.Universe.raw());
    // Partition the cache by the caller's run configuration (e.g. the
    // pipeline's active pass set) so a shared context never replays a
    // suffix recorded under a different setup.
    memo::fpMix(F, Cfg.ConfigSalt);
    return F;
  }

  /// SEQ states are canonical by construction (dense memory vector, bitset
  /// P/F, structural σ), so hashing the components is a canonical-state
  /// fingerprint directly.
  memo::Fp128 stateKey(const SeqState &S, unsigned StepsLeft) const {
    memo::Fp128 K = MachineFp;
    memo::fpMix(K, S.Prog.hash());
    memo::fpMix(K, S.Perm.raw());
    memo::fpMix(K, S.Written.raw());
    memo::fpMix(K, S.Mem.size());
    for (const Value &V : S.Mem)
      memo::fpMix(K, V.hash());
    memo::fpMix(K, StepsLeft);
    return K;
  }

  /// Appends one emission attempt (real or replayed) to every active
  /// recording frame. \p StepsLeftNow is the budget at the node that
  /// produced the attempt (for replayed attempts, at the *hit* node — the
  /// depth refinement below it is folded in separately by replay()).
  void noteVisit(const SeqBehavior &B, bool AtBudget, unsigned StepsLeftNow) {
    for (RecFrame &RF : RecStack) {
      if (RF.Overflow)
        continue;
      if (RF.Rec.Attempts.size() >= MaxAttemptsPerFrame || AppendBudget == 0) {
        RF.Overflow = true;
        RF.Rec.Attempts.clear();
        RF.Rec.Attempts.shrink_to_fit();
        continue;
      }
      --AppendBudget;
      SeqSuffixAttempt A;
      A.Suffix.assign(B.Trace.begin() + RF.BaseLen, B.Trace.end());
      A.Kind = B.Kind;
      A.RetVal = B.RetVal;
      A.F = B.F;
      A.Mem = B.Mem;
      A.AtBudget = AtBudget;
      RF.Rec.RelMaxDepth =
          std::max(RF.Rec.RelMaxDepth, RF.StepsAtNode - StepsLeftNow);
      RF.Rec.Attempts.push_back(std::move(A));
    }
  }

  /// Replays a cached subtree at the current trace position: one guard
  /// checkpoint for the hit node (the replayed nodes poll nothing — a
  /// replay is finite, so guarded runs stay bounded), then the attempt
  /// stream through emit(), reproducing the unmemoized emissions exactly.
  void replay(const SeqSuffixRec &Rec, unsigned StepsLeft) {
    if (Guard) {
      TruncationCause C = Guard->checkpoint();
      if (C != TruncationCause::None) {
        noteTruncation(Result.Cause, C);
        return;
      }
    }
    ++T.MemoHits;
    T.Pruned += Rec.SubtreeStates;
    T.MaxDepth = std::max(
        T.MaxDepth, M.config().StepBudget - StepsLeft + Rec.RelMaxDepth);
    for (RecFrame &RF : RecStack)
      if (!RF.Overflow)
        RF.Rec.RelMaxDepth =
            std::max(RF.Rec.RelMaxDepth,
                     (RF.StepsAtNode - StepsLeft) + Rec.RelMaxDepth);
    for (const SeqSuffixAttempt &A : Rec.Attempts) {
      SeqBehavior B;
      B.Trace = Trace;
      B.Trace.insert(B.Trace.end(), A.Suffix.begin(), A.Suffix.end());
      B.Kind = A.Kind;
      B.RetVal = A.RetVal;
      B.F = A.F;
      B.Mem = A.Mem;
      noteVisit(B, A.AtBudget, StepsLeft);
      emit(std::move(B));
      if (A.AtBudget) {
        ++T.TruncStep;
        noteTruncation(Result.Cause, TruncationCause::StepBudget);
      }
    }
  }

  /// Visits a node through the memo layer: answers from the suffix cache
  /// when possible, otherwise opens a recording frame around the real
  /// visit. \returns whether the node's successors should be explored;
  /// exactly then a frame stays open and exitNode() must run once the
  /// subtree completes.
  bool enterNode(const SeqState &S, unsigned StepsLeft) {
    if (!Memo)
      return visitNode(S, StepsLeft);
    memo::Fp128 Key = stateKey(S, StepsLeft);
    if (std::shared_ptr<const SeqSuffixRec> Rec = Memo->lookupAs<SeqSuffixRec>(
            memo::MemoContext::Table::SeqSuffix, Key)) {
      replay(*Rec, StepsLeft);
      return false;
    }
    ++T.MemoMisses;
    RecStack.push_back(
        RecFrame{Key, Trace.size(), StepsLeft, T.Expanded + T.Pruned, {}, false});
    bool Expand = visitNode(S, StepsLeft);
    if (!Expand)
      exitNode();
    return Expand;
  }

  /// Closes the innermost recording frame, publishing its summary unless
  /// it overflowed or a guard stopped the run mid-subtree (the stream
  /// would be incomplete, and guard causes are timing-dependent anyway).
  void exitNode() {
    if (!Memo)
      return;
    RecFrame RF = std::move(RecStack.back());
    RecStack.pop_back();
    RF.Rec.SubtreeStates = (T.Expanded + T.Pruned) - RF.StartVirtual;
    if (RF.Overflow || (Guard && Guard->stopped()))
      return;
    Memo->insertAs<SeqSuffixRec>(
        memo::MemoContext::Table::SeqSuffix, RF.Key,
        std::make_shared<const SeqSuffixRec>(std::move(RF.Rec)));
  }

public:

  void emit(SeqBehavior B) {
    // Dedup *before* the cap check: a behavior already in the set is a
    // dedup hit, never a capped emission. (Checking the cap first made it
    // fire early by however many duplicates arrived once the set was
    // full, and misattributed the truncation.)
    if (Seen.find(B) != Seen.end()) {
      ++T.DedupHits;
      return;
    }
    uint64_t Unique = SharedUnique
                          ? SharedUnique->load(std::memory_order_relaxed)
                          : Seen.size();
    if (Unique >= M.config().MaxBehaviors) {
      ++T.TruncCap;
      noteTruncation(Result.Cause, TruncationCause::BehaviorCap);
      return;
    }
    if (SharedUnique)
      SharedUnique->fetch_add(1, std::memory_order_relaxed);
    ++T.Emitted;
    if (Guard)
      // Retained twice (Seen + All); approximate both copies.
      Guard->charge(2 * (sizeof(SeqBehavior) +
                         B.Trace.size() * sizeof(SeqEvent) +
                         B.Mem.size() * sizeof(Value)));
    Seen.insert(B);
    Result.All.push_back(std::move(B));
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
    // Every reachable state generates ⟨tr, prt(F)⟩ — including states that
    // could also terminate (Def 2.1's "otherwise" applies only to
    // non-terminal states, so skip those).
    if (S.isBottom()) {
      SeqBehavior B;
      B.Trace = Trace;
      B.Kind = SeqBehavior::End::Bottom;
      noteVisit(B, /*AtBudget=*/false, StepsLeft);
      emit(std::move(B));
      return false;
    }
    if (S.isTerminated()) {
      SeqBehavior B;
      B.Trace = Trace;
      B.Kind = SeqBehavior::End::Term;
      B.RetVal = S.Prog.retVal();
      B.F = S.Written;
      B.Mem.assign(S.Mem.begin(), S.Mem.end());
      noteVisit(B, /*AtBudget=*/false, StepsLeft);
      emit(std::move(B));
      return false;
    }
    SeqBehavior B;
    B.Trace = Trace;
    B.Kind = SeqBehavior::End::Partial;
    B.F = S.Written;
    bool AtBudget = StepsLeft == 0;
    noteVisit(B, AtBudget, StepsLeft);
    emit(std::move(B));
    if (AtBudget) {
      ++T.TruncStep;
      noteTruncation(Result.Cause, TruncationCause::StepBudget);
      return false;
    }
    return true;
  }

  /// Task-generation front-end: visit \p S under an explicit trace.
  bool visitWithTrace(const SeqState &S, const std::vector<SeqEvent> &Tr,
                      unsigned StepsLeft) {
    Trace = Tr;
    return visitNode(S, StepsLeft);
  }

  /// DFS from \p Start, visiting nodes in exactly the order the recursive
  /// formulation would (parent, then children left to right), on an
  /// explicit frame stack so deep trees cannot exhaust the call stack.
  void explore(const SeqState &Start, std::vector<SeqEvent> StartTrace,
               unsigned StepsLeft) {
    Trace = std::move(StartTrace);
    if (!enterNode(Start, StepsLeft))
      return;
    std::vector<Frame> Stack;
    Stack.push_back(Frame{M.successors(Start), 0, 0, StepsLeft});
    while (!Stack.empty()) {
      Frame &F = Stack.back();
      Trace.resize(Trace.size() - F.PrevPushed);
      F.PrevPushed = 0;
      if (F.Idx == F.Succs.size()) {
        exitNode(); // each stack frame owns one recording frame
        Stack.pop_back();
        continue;
      }
      SeqTransition &Tr = F.Succs[F.Idx++];
      F.PrevPushed = Tr.Labels.size();
      for (SeqEvent &E : Tr.Labels)
        Trace.push_back(std::move(E));
      unsigned Left = F.StepsLeft - 1;
      if (enterNode(Tr.Next, Left)) {
        // Compute successors before push_back: growing the stack
        // invalidates F and Tr.
        SeqTransitions Succs = M.successors(Tr.Next);
        Stack.push_back(Frame{std::move(Succs), 0, 0, Left});
      }
    }
  }

  /// Task-order merge step: folds a worker's subtree result into this
  /// enumerator — global dedup through emit(), first-seen truncation cause.
  void absorb(BehaviorSet &&S) {
    noteTruncation(Result.Cause, S.Cause);
    for (SeqBehavior &B : S.All)
      emit(std::move(B));
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
  if (T.MemoHits || T.MemoMisses || T.Pruned) {
    Tally.slot("memo.hits") += T.MemoHits;
    Tally.slot("memo.misses") += T.MemoMisses;
    Tally.slot("memo.pruned_states") += T.Pruned;
  }
  Telem->Counters.maxGauge("seq.enum.max_depth", T.MaxDepth);
}

/// One machine copy per fan-out worker, stepping \p M's program with that
/// worker's telemetry.
std::vector<SeqMachine> workerMachines(const SeqMachine &M,
                                       const obs::WorkerTelemetry &WTelem,
                                       unsigned N) {
  std::vector<SeqMachine> Out;
  Out.reserve(N);
  for (unsigned W = 0; W != N; ++W) {
    SeqConfig WCfg = M.config();
    WCfg.Telem = WTelem[W];
    Out.emplace_back(M.program(), M.tid(), std::move(WCfg));
  }
  return Out;
}

BehaviorSet enumerateSequential(const SeqMachine &M, const SeqState &Init,
                                EnumTallies &Out) {
  DfsEnumerator E(M);
  E.explore(Init, {}, M.config().StepBudget);
  Out = E.tallies();
  return E.take();
}

BehaviorSet enumerateParallel(const SeqMachine &M, const SeqState &Init,
                              unsigned N, EnumTallies &Out) {
  const SeqConfig &Cfg = M.config();
  DfsEnumerator Root(M);

  // Phase 1 (orchestrator): BFS from Init until the frontier holds enough
  // independent subtrees to ride out uneven subtree sizes. Popped nodes are
  // emitted into the root result here; the frontier remainder becomes the
  // task list, in BFS order.
  std::deque<EnumTask> Queue;
  Queue.push_back(EnumTask{Init, {}, Cfg.StepBudget});
  const size_t Target = static_cast<size_t>(N) * 4;
  while (!Queue.empty() && Queue.size() < Target) {
    EnumTask Tk = std::move(Queue.front());
    Queue.pop_front();
    if (!Root.visitWithTrace(Tk.State, Tk.Trace, Tk.StepsLeft))
      continue;
    for (SeqTransition &Tr : M.successors(Tk.State)) {
      EnumTask Child;
      Child.Trace = Tk.Trace;
      for (SeqEvent &E : Tr.Labels)
        Child.Trace.push_back(std::move(E));
      Child.State = std::move(Tr.Next);
      Child.StepsLeft = Tk.StepsLeft - 1;
      Queue.push_back(std::move(Child));
    }
  }
  std::vector<EnumTask> Tasks(std::make_move_iterator(Queue.begin()),
                              std::make_move_iterator(Queue.end()));

  // Phase 2 (pool): workers drain the task deques (own shard LIFO, steal
  // FIFO), each subtree explored by a private enumerator against a private
  // machine. Results land in per-task slots — scheduling decides only *who*
  // fills a slot, never what the merge sees. MaxBehaviors is enforced
  // approximately here, via a shared count of unique-per-worker emissions,
  // and exactly at merge below.
  std::atomic<uint64_t> UniqueCount{Root.tallies().Emitted};
  obs::WorkerTelemetry WTelem(Cfg.Telem, N);
  std::vector<SeqMachine> Machines = workerMachines(M, WTelem, N);
  std::vector<BehaviorSet> TaskSets(Tasks.size());
  std::vector<EnumTallies> TaskTallies(Tasks.size());
  exec::WorkDequeSet<size_t> Deques(N);
  for (size_t I = 0; I != Tasks.size(); ++I)
    Deques.push(static_cast<unsigned>(I % N), I);
  exec::ThreadPool::global().run(
      N,
      [&](unsigned W) {
        obs::Telemetry *WT = WTelem[W];
        while (std::optional<size_t> Idx = Deques.next(W)) {
          if (Cfg.Guard && Cfg.Guard->stopped())
            continue; // drain remaining tasks; verdict comes from the guard
          EnumTask &Tk = Tasks[*Idx];
          obs::ScopedSpan TaskSpan(WT ? WT->Spans : nullptr, "seq.task");
          uint64_t TaskT0 = WT ? nowMonotonicNs() : 0;
          DfsEnumerator E(Machines[W], &UniqueCount);
          E.explore(Tk.State, std::move(Tk.Trace), Tk.StepsLeft);
          TaskSets[*Idx] = E.take();
          TaskTallies[*Idx] = E.tallies();
          if (WT)
            WT->Counters.recordHist("seq.task.us",
                                    (nowMonotonicNs() - TaskT0) / 1000);
        }
      },
      Cfg.Guard ? &Cfg.Guard->stopFlag() : nullptr);
  WTelem.merge();

  // Phase 3 (orchestrator): merge per-task results in task order with
  // global dedup. Behaviors are emitted counters-exact: Emitted counts the
  // root's and the merge's unique insertions, DedupHits the workers' local
  // hits plus the cross-task hits seen here.
  for (BehaviorSet &TS : TaskSets)
    Root.absorb(std::move(TS));
  Out = Root.tallies();
  for (const EnumTallies &TT : TaskTallies) {
    Out.Expanded += TT.Expanded;
    Out.DedupHits += TT.DedupHits;
    Out.TruncStep += TT.TruncStep;
    Out.TruncCap += TT.TruncCap;
    Out.MaxDepth = std::max(Out.MaxDepth, TT.MaxDepth);
    Out.MemoHits += TT.MemoHits;
    Out.MemoMisses += TT.MemoMisses;
    Out.Pruned += TT.Pruned;
  }
  return Root.take();
}

} // namespace

BehaviorSet pseq::enumerateBehaviors(const SeqMachine &M,
                                     const SeqState &Init) {
  // Two algorithms, not two copies of one: a single worker runs the plain
  // DFS, several split the tree breadth-first into subtree tasks.
  unsigned N = exec::fanOutWidth(M.config().NumThreads);
  obs::Telemetry *Telem = M.config().Telem;
  obs::ScopedSpan Span(Telem ? Telem->Spans : nullptr, "seq.enum");
  EnumTallies T;
  BehaviorSet R = N == 1 ? enumerateSequential(M, Init, T)
                         : enumerateParallel(M, Init, N, T);
  // Canonical order: both algorithms sort, so the vector is identical for
  // every NumThreads (the parallel merge alone would leave task-generation
  // prefixes first).
  std::sort(R.All.begin(), R.All.end(), behaviorLess);
  // A tripped guard always surfaces in the set's cause, even when the trip
  // happened after the last node this enumeration visited (e.g. drained
  // pool tasks whose results never reached the merge).
  if (guard::ResourceGuard *G = M.config().Guard; G && G->stopped())
    noteTruncation(R.Cause, G->cause());
  foldTallies(Telem, T);
  if (Telem) {
    Telem->Counters.recordHist("seq.enum.behavior_set", R.All.size());
    if (isGuardCause(R.Cause))
      Telem->finalSnapshot(truncationCauseName(R.Cause));
  }
  if (memo::MemoContext *MC = M.config().Memo;
      MC && (T.MemoHits || T.MemoMisses || T.Pruned)) {
    MC->noteHit(T.MemoHits);
    MC->noteMiss(T.MemoMisses);
    MC->notePruned(T.Pruned);
  }
  return R;
}

std::vector<BehaviorSet>
pseq::enumerateBehaviorsBatch(const SeqMachine &M,
                              const std::vector<SeqState> &Inits) {
  // Initial states fan out across the pool; each per-init enumeration runs
  // on a pool worker (or inline at one worker) and therefore takes its
  // single-worker path, which is exactly the deterministic per-init result.
  // None is drained on a guard trip: each enumeration polls the guard and
  // comes back truncated, as in a one-worker run.
  unsigned N = exec::fanOutWidth(M.config().NumThreads, Inits.size());
  obs::WorkerTelemetry WTelem(M.config().Telem, N);
  std::vector<SeqMachine> Machines = workerMachines(M, WTelem, N);
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

//===- psna/Explorer.cpp - Exhaustive PS^na exploration -------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "psna/Explorer.h"

#include "exec/ThreadPool.h"
#include "guard/Guard.h"
#include "memo/Independence.h"
#include "memo/MemoContext.h"
#include "memo/VisitedSet.h"
#include "obs/Telemetry.h"
#include "support/Hashing.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_set>

using namespace pseq;

bool PsBehavior::refines(const PsBehavior &Src) const {
  if (Src.IsUB)
    return true;
  if (IsUB)
    return false;
  if (Rets.size() != Src.Rets.size() || Outs.size() != Src.Outs.size())
    return false;
  for (size_t I = 0, E = Rets.size(); I != E; ++I)
    if (!Rets[I].refines(Src.Rets[I]))
      return false;
  for (size_t I = 0, E = Outs.size(); I != E; ++I)
    if (!Outs[I].refines(Src.Outs[I]))
      return false;
  return true;
}

uint64_t PsBehavior::hash() const {
  uint64_t H = IsUB ? 0xdeadULL : 1;
  H = hashCombine(H, Rets.size());
  for (Value V : Rets)
    H = hashCombine(H, V.hash());
  H = hashCombine(H, Outs.size());
  for (Value V : Outs)
    H = hashCombine(H, V.hash());
  return H;
}

std::string PsBehavior::str() const {
  if (IsUB)
    return "UB";
  std::string Out;
  if (!Outs.empty()) {
    Out += "out(";
    for (size_t I = 0, E = Outs.size(); I != E; ++I) {
      if (I)
        Out += ",";
      Out += Outs[I].str();
    }
    Out += ") ";
  }
  Out += "ret(";
  for (size_t I = 0, E = Rets.size(); I != E; ++I) {
    if (I)
      Out += ",";
    Out += Rets[I].str();
  }
  return Out + ")";
}

bool PsBehaviorSet::containsStr(const std::string &S) const {
  for (const PsBehavior &B : All)
    if (B.str() == S)
      return true;
  return false;
}

bool PsBehaviorSet::covers(const PsBehavior &Tgt) const {
  for (const PsBehavior &Src : All)
    if (Tgt.refines(Src))
      return true;
  return false;
}

std::vector<std::string> PsBehaviorSet::strs() const {
  std::vector<std::string> Out;
  Out.reserve(All.size());
  for (const PsBehavior &B : All)
    Out.push_back(B.str());
  std::sort(Out.begin(), Out.end());
  return Out;
}

namespace {

struct StateHash {
  size_t operator()(const PsMachineState &S) const {
    return static_cast<size_t>(S.hash());
  }
};

struct BehaviorHash {
  size_t operator()(const PsBehavior &B) const {
    return static_cast<size_t>(B.hash());
  }
};

/// Rough retained footprint of a visited state, for MemBudget accounting
/// (Visited keeps one copy, the frontier briefly another).
uint64_t approxStateBytes(const PsMachineState &S) {
  return 2 * (sizeof(PsMachineState) + S.Threads.size() * sizeof(PsThread) +
              S.Outs.size() * sizeof(Value));
}

/// Canonical-state fingerprint: the explorer normalizes every state before
/// hashing (dense per-location timestamp ranks), so mixing the component
/// hashes of a normalized state is rename-invariant by construction.
memo::Fp128 psStateFingerprint(const PsMachineState &S) {
  memo::Fp128 F = memo::fpSeed(/*Tag=*/0x70737374 /* "psst" */);
  memo::fpMix(F, S.Bottom ? 1 : 0);
  memo::fpMix(F, S.Threads.size());
  for (const PsThread &T : S.Threads)
    memo::fpMix(F, T.hash());
  memo::fpMix(F, S.Mem.hash());
  memo::fpMix(F, S.Outs.size());
  for (const Value &V : S.Outs)
    memo::fpMix(F, V.hash());
  return F;
}

/// Static per-thread access sets feeding the sleep-set conflict predicate;
/// On only when a MemoContext with pruning is attached and the run shape
/// supports the independence argument (normalized states, mask-sized
/// thread count, more than one thread to commute).
struct PruneInfo {
  bool On = false;
  std::vector<LocSet> Writable; ///< NaWritten ∪ AtomicAccessed (= the
                                ///< locations stepPromise can target)
  std::vector<LocSet> AllLocs;  ///< NaAccessed ∪ AtomicAccessed (= the
                                ///< certification search's read set)
};

PruneInfo makePruneInfo(const Program &P, const PsConfig &Cfg) {
  PruneInfo PI;
  if (!Cfg.Memo || !Cfg.Memo->options().Prune || !Cfg.Normalize ||
      P.numThreads() < 2 || P.numThreads() > 32)
    return PI;
  PI.On = true;
  for (unsigned T = 0, E = P.numThreads(); T != E; ++T) {
    AccessSummary AS = P.accessSummary(T);
    PI.Writable.push_back(AS.NaWritten.unionWith(AS.AtomicAccessed));
    PI.AllLocs.push_back(AS.NaAccessed.unionWith(AS.AtomicAccessed));
  }
  return PI;
}

/// Over-approximates everything thread \p Tid's next machine step can
/// touch at \p S (see DESIGN.md "Sleep sets" for the soundness argument):
///
///  * outstanding promises → Global (lower/fulfillment ordering and
///    re-certification interact with every step);
///  * fences → Global (view joins are not per-location);
///  * reads/writes/RMWs → their location (message insertion, visibility,
///    race detection, and normalization are all per-location);
///  * prints → the Output order; silent/choose/fail steps touch nothing
///    (a fail's Bottom successor records the same UB behavior from any
///    interleaving point);
///  * and whenever the thread may still promise, its whole promisable set
///    plus the certification read set — promise successors insert
///    messages at any writable location and their certification reads
///    arbitrary locations the thread accesses.
memo::Footprint threadFootprint(const Program &P, const PsConfig &Cfg,
                                const PruneInfo &PI, const PsMachineState &S,
                                unsigned Tid) {
  const PsThread &T = S.Threads[Tid];
  if (!T.Promises.empty())
    return memo::Footprint::global();
  if (T.Prog.isDone())
    return memo::Footprint();
  if (T.Prog.isError())
    return memo::Footprint::global(); // unreachable in expanded states
  memo::Footprint F;
  ProgState::Pending Pend = T.Prog.pending(P, Tid);
  switch (Pend.K) {
  case ProgState::Pending::Kind::Silent:
  case ProgState::Pending::Kind::Choose:
  case ProgState::Pending::Kind::Fail:
    break;
  case ProgState::Pending::Kind::Read:
  case ProgState::Pending::Kind::Write:
  case ProgState::Pending::Kind::Rmw:
    F.Locs = LocSet::single(Pend.Loc);
    break;
  case ProgState::Pending::Kind::Fence:
    return memo::Footprint::global();
  case ProgState::Pending::Kind::Print:
    F.Output = true;
    break;
  }
  if (Cfg.PromiseBudget > 0 && !PI.Writable[Tid].isEmpty())
    F.Locs = F.Locs.unionWith(PI.Writable[Tid]).unionWith(PI.AllLocs[Tid]);
  return F;
}

/// A frontier entry: the state plus the sleep-set mask it was enqueued
/// with (bit t set = thread t is asleep; always 0 with pruning off).
struct WorkItem {
  PsMachineState S;
  uint32_t Sleep = 0;
};

/// One frontier state's outcome: the behavior it records when it is
/// terminal, else its successors, concatenated in thread order, with the
/// per-thread counts the explorer tallies. With pruning on, SuccSleep
/// carries each successor's sleep mask and PrunedSkips counts the
/// thread-expansions the sleep set suppressed.
struct PsExpansion {
  std::optional<PsBehavior> Final;
  std::vector<PsMachineState> Succs;
  std::vector<uint32_t> SuccSleep;
  std::vector<uint32_t> PerThread;
  uint32_t PrunedSkips = 0;
  /// Machine-counter deltas for this expansion (racy transitions enabled,
  /// NAMsg markers emitted), merged by the explorer in pop order so the
  /// totals are deterministic for every worker count.
  uint64_t RaceSteps = 0;
  uint64_t NaMarkers = 0;
};

/// Expands \p S under sleep mask \p Sleep — a pure function of its inputs,
/// so every worker computes byte-identical expansions. Sleep-set
/// maintenance is the classic scheme at thread granularity: expanding
/// threads in index order, the successor taken via thread t puts to sleep
/// every earlier-expanded or already-sleeping thread whose footprint is
/// independent of t's (its interleavings are explored via the sibling
/// branch where it moved first).
void expandState(const Program &P, const PsMachine &M, const PruneInfo &PI,
                 const PsMachineState &S, uint32_t Sleep, PsExpansion &E) {
  unsigned NT = static_cast<unsigned>(S.Threads.size());
  E.PerThread.assign(NT, 0);
  uint64_t RaceBase = M.raceSteps(), MarkerBase = M.naMarkers();
  std::vector<memo::Footprint> Fp;
  if (PI.On) {
    Fp.resize(NT);
    for (unsigned T = 0; T != NT; ++T)
      Fp[T] = threadFootprint(P, M.config(), PI, S, T);
  }
  uint32_t Done = 0;
  for (unsigned Tid = 0; Tid != NT; ++Tid) {
    if (PI.On && ((Sleep >> Tid) & 1)) {
      ++E.PrunedSkips;
      continue;
    }
    std::vector<PsMachineState> Succ = M.threadSuccessors(S, Tid);
    E.PerThread[Tid] = static_cast<uint32_t>(Succ.size());
    uint32_t ChildSleep = 0;
    if (PI.On) {
      uint32_t Candidates = Sleep | Done;
      for (unsigned J = 0; J != NT; ++J)
        if (((Candidates >> J) & 1) && memo::independent(Fp[J], Fp[Tid]))
          ChildSleep |= uint32_t(1) << J;
      if (!Succ.empty())
        Done |= uint32_t(1) << Tid;
    }
    for (PsMachineState &Next : Succ) {
      E.Succs.push_back(std::move(Next));
      if (PI.On)
        E.SuccSleep.push_back(ChildSleep);
    }
  }
  E.RaceSteps = M.raceSteps() - RaceBase;
  E.NaMarkers = M.naMarkers() - MarkerBase;
}

/// Clock for the timing histograms (`.us`-suffixed keys, which the
/// determinism checks skip). Steady so span/step latencies never jump
/// under wall-clock adjustment.
uint64_t nowMonotonicNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Level-synchronous BFS, the one exploration loop for every worker count.
/// Each round expands the whole current frontier across the pool (inline
/// at one worker), then merges expansions *in pop order*, with the
/// MaxStates check re-run before each merged index. The merged
/// Visited/Work evolution is therefore a function of the level alone —
/// behaviors, insertion order, StatesExplored, and the truncation cause
/// match for every worker count, even mid-level truncation. (A truncating
/// round expands frontier states the merge never pops; their results are
/// discarded, costing only wasted work, and their certification searches
/// cannot change any verdict because every search carries its own private
/// node budget.) A guard trip stops the run at the start of the merge of
/// the level it tripped in, so guarded runs also stop at the same level
/// for every worker count.
PsBehaviorSet exploreLevels(const Program &P, const PsConfig &Cfg) {
  unsigned N = exec::fanOutWidth(Cfg.NumThreads);
  obs::WorkerTelemetry WTelem(Cfg.Telem, N);
  std::vector<std::unique_ptr<PsMachine>> Machines;
  for (unsigned W = 0; W != N; ++W) {
    PsConfig WCfg = Cfg;
    WCfg.Telem = WTelem[W];
    Machines.push_back(std::make_unique<PsMachine>(P, WCfg));
  }
  PsBehaviorSet Result;
  PruneInfo PI = makePruneInfo(P, Cfg);
  std::unordered_set<PsMachineState, StateHash> Visited;
  memo::VisitedSet PrunedVisited(PI.On ? (size_t(1) << 16) : 64);
  auto visitedCount = [&] {
    return PI.On ? PrunedVisited.size() : uint64_t(Visited.size());
  };
  std::unordered_set<PsBehavior, BehaviorHash> Behaviors;
  std::deque<WorkItem> Work;

  obs::Telemetry *Telem = Cfg.Telem;
  obs::ScopedTimer Timer(Telem ? &Telem->Timers : nullptr, "psna.explore");
  obs::ScopedSpan Span(Telem ? Telem->Spans : nullptr, "psna.explore");
  obs::ScopedTally Tally(Telem ? &Telem->Counters : nullptr);
  uint64_t &Runs = Tally.slot("psna.explore.runs");
  uint64_t &Expanded = Tally.slot("psna.explore.states_expanded");
  uint64_t &DedupHits = Tally.slot("psna.explore.dedup_hits");
  uint64_t &Emitted = Tally.slot("psna.explore.behaviors");
  std::vector<uint64_t> ThreadSteps(P.numThreads(), 0);
  uint64_t PrunedSkips = 0, Requeues = 0;
  uint64_t RaceSteps = 0, NaMarkers = 0;
  size_t MaxFrontier = 1;
  ++Runs;

  PsMachineState Init = Machines[0]->initialState();
  Init.normalize();
  if (PI.On)
    PrunedVisited.insertOrMerge(psStateFingerprint(Init), 0);
  else
    Visited.insert(Init);
  Work.push_back(WorkItem{std::move(Init), 0});

  auto record = [&](PsBehavior B) {
    if (Behaviors.insert(B).second) {
      ++Emitted;
      Result.All.push_back(std::move(B));
    }
  };

  guard::ResourceGuard *G = Cfg.Guard;
  obs::SpanRecorder *SpanRec = Telem ? Telem->Spans : nullptr;
  bool Truncated = false;
  while (!Work.empty() && !Truncated) {
    size_t K = Work.size();
    std::vector<PsExpansion> Level(K);
    obs::ScopedSpan LevelSpan(SpanRec, "psna.level");
    exec::parallelFor(
        N, K,
        [&](size_t I, unsigned W) {
          if (G && G->checkpoint() != TruncationCause::None)
            return; // drained; the merge below stops at the trip anyway
          // The state turns into its outcome here and is freed at once, so
          // its memory is reused by the next expansion instead of piling
          // up until the merge.
          PsMachineState S = std::move(Work[I].S);
          PsExpansion &E = Level[I];
          if (S.Bottom) {
            E.Final = PsBehavior::ub();
            return;
          }
          if (S.allDone()) {
            E.Final.emplace();
            for (const PsThread &T : S.Threads)
              E.Final->Rets.push_back(T.Prog.retVal());
            E.Final->Outs = std::move(S.Outs);
            return;
          }
          // Pure function of (state, mask): all VisitedSet decisions stay
          // in the single-threaded merge below, so results are
          // bit-identical for every worker count, pruning on or off.
          obs::Telemetry *WT = WTelem[W];
          obs::ScopedSpan ExpandSpan(WT ? WT->Spans : nullptr, "psna.expand");
          uint64_t StepT0 = WT ? nowMonotonicNs() : 0;
          expandState(P, *Machines[W], PI, S, Work[I].Sleep, E);
          if (WT)
            WT->Counters.recordHist("psna.step.us",
                                    (nowMonotonicNs() - StepT0) / 1000);
        },
        G ? &G->stopFlag() : nullptr);

    for (size_t I = 0; I != K; ++I) {
      if (visitedCount() > Cfg.MaxStates) {
        noteTruncation(Result.Cause, TruncationCause::StateBudget);
        Truncated = true;
        break;
      }
      if (G && G->stopped()) {
        // Expansion slots past the trip may be empty or partial; merging
        // them would make the truncated *content* depend on timing. Stop
        // at the trip — the verdict is bounded either way.
        noteTruncation(Result.Cause, G->cause());
        Truncated = true;
        break;
      }
      MaxFrontier = std::max(MaxFrontier, Work.size());
      if (Telem)
        // Frontier sizes are a pure function of the BFS, so the histogram
        // is bit-identical for every worker count.
        Telem->Counters.recordHist("psna.explore.frontier", Work.size());
      Work.pop_front();
      ++Expanded;

      // Taken out of the level so its successors are released as soon as
      // they are merged, not held until the whole level is done.
      PsExpansion E = std::move(Level[I]);
      if (E.Final) {
        record(std::move(*E.Final));
        continue;
      }
      for (size_t Tid = 0; Tid != E.PerThread.size(); ++Tid)
        ThreadSteps[Tid] += E.PerThread[Tid];
      PrunedSkips += E.PrunedSkips;
      RaceSteps += E.RaceSteps;
      NaMarkers += E.NaMarkers;
      for (size_t X = 0; X != E.Succs.size(); ++X) {
        PsMachineState &Next = E.Succs[X];
        if (!PI.On) {
          if (Visited.insert(Next).second) {
            if (G)
              G->charge(approxStateBytes(Next));
            Work.push_back(WorkItem{std::move(Next), 0});
          } else {
            ++DedupHits;
          }
          continue;
        }
        memo::VisitedSet::Outcome O = PrunedVisited.insertOrMerge(
            psStateFingerprint(Next), E.SuccSleep[X]);
        if (O.Inserted) {
          if (G)
            G->charge(approxStateBytes(Next));
          Work.push_back(WorkItem{std::move(Next), O.Mask});
        } else if (O.Shrunk) {
          // State-caching correction: a revisit under a strictly smaller
          // sleep set re-enqueues the state so the newly-awake threads get
          // expanded (masks only shrink, so this terminates).
          ++Requeues;
          Work.push_back(WorkItem{std::move(Next), O.Mask});
        } else {
          ++DedupHits;
        }
      }
    }
  }

  WTelem.merge();
  for (const std::unique_ptr<PsMachine> &M : Machines)
    if (M->certBudgetHit())
      noteTruncation(Result.Cause, TruncationCause::CertBudget);
  if (G && G->stopped())
    noteTruncation(Result.Cause, G->cause());
  Result.StatesExplored = static_cast<unsigned>(visitedCount());
  Result.RaceSteps = RaceSteps;
  Result.NaMarkers = NaMarkers;
  if (Telem) {
    Telem->Counters.add("psna.explore.race_steps", RaceSteps);
    Telem->Counters.add("psna.na_markers", NaMarkers);
  }
  if (PI.On) {
    Cfg.Memo->notePruned(PrunedSkips);
    if (Telem) {
      Telem->Counters.add("memo.pruned_states", PrunedSkips);
      Telem->Counters.add("psna.explore.sleep_requeues", Requeues);
    }
  }

  if (Telem) {
    Telem->Counters.maxGauge("psna.explore.max_frontier",
                             static_cast<double>(MaxFrontier));
    Telem->Counters.recordHist("psna.explore.behavior_set",
                               Result.All.size());
    for (size_t Tid = 0; Tid != ThreadSteps.size(); ++Tid)
      Telem->Counters.add("psna.explore.thread" + std::to_string(Tid) +
                              ".steps",
                          ThreadSteps[Tid]);
    if (Telem->tracing())
      Telem->trace("psna.explore",
                   {{"states", uint64_t(Result.StatesExplored)},
                    {"behaviors", uint64_t(Result.All.size())},
                    {"dedup_hits", DedupHits},
                    {"cause", truncationCauseName(Result.Cause)},
                    {"ms", Timer.stop()}});
    if (isGuardCause(Result.Cause))
      Telem->finalSnapshot(truncationCauseName(Result.Cause));
  }
  return Result;
}

/// Cross-run cache key: the program plus every config knob the behavior
/// set depends on. NumThreads is excluded (results are bit-identical for
/// every worker count) and so are the borrowed Telem/Guard/Memo services;
/// guard-truncated results are never inserted, so a cached value is
/// always a clean bounded exploration.
memo::Fp128 psExploreKey(const Program &P, const PsConfig &Cfg) {
  memo::Fp128 K = memo::fpSeed(/*Tag=*/0x70736578 /* "psex" */);
  K = memo::fpCombine(K, memo::fingerprintProgram(P));
  std::vector<int64_t> Vals = Cfg.Domain.values();
  memo::fpMix(K, Vals.size());
  for (int64_t V : Vals)
    memo::fpMix(K, static_cast<uint64_t>(V));
  memo::fpMix(K, Cfg.PromiseBudget);
  memo::fpMix(K, Cfg.SplitBudget);
  memo::fpMix(K, Cfg.CertNodeBudget);
  memo::fpMix(K, Cfg.MaxStates);
  memo::fpMix(K, Cfg.Normalize ? 1 : 0);
  // Pruning changes StatesExplored (not the behaviors); keep prune-on and
  // prune-off results distinct so both remain exact for their mode.
  memo::fpMix(K, Cfg.Memo && Cfg.Memo->options().Prune ? 1 : 0);
  // Ditto for lint-driven marker skipping: behaviors are identical, but
  // StatesExplored and the race/marker tallies are not. The caller passes
  // the *effective* config (SkipNaMarkers already resolved).
  memo::fpMix(K, Cfg.SkipNaMarkers ? 1 : 0);
  // Caller-provided partition (active pipeline / atlas configuration):
  // shared contexts must never serve a behavior set cached under a
  // different setup.
  memo::fpMix(K, Cfg.ConfigSalt);
  return K;
}

/// Resolves the effective marker-skipping bit: runs the static analyzer
/// (when enabled and not already forced) and reports its verdict.
std::optional<analysis::RaceVerdict> resolveLint(const Program &P,
                                                PsConfig &Cfg) {
  if (!Cfg.Lint || Cfg.SkipNaMarkers)
    return std::nullopt;
  analysis::RaceReport Rep = analysis::analyzeRaces(P, Cfg.Telem);
  Cfg.SkipNaMarkers = Rep.skipNaMarkers();
  if (Cfg.Telem && Cfg.SkipNaMarkers)
    Cfg.Telem->Counters.add("analysis.markers_skipped", 1);
  return Rep.Verdict;
}

} // namespace

PsBehaviorSet pseq::explorePsna(const Program &P, const PsConfig &Cfg) {
  // Lint first: the verdict decides the effective SkipNaMarkers knob, and
  // the cross-run cache key must be computed from the effective config.
  PsConfig ECfg = Cfg;
  std::optional<analysis::RaceVerdict> Verdict = resolveLint(P, ECfg);

  auto stamp = [&](PsBehaviorSet &R) {
    // Lint/MarkersSkipped describe this call's configuration, not the
    // exploration; restamp them even on cached results.
    R.Lint = Verdict;
    R.MarkersSkipped = ECfg.SkipNaMarkers;
    if (Cfg.Telem && Verdict) {
      // Static-vs-dynamic agreement: a statically-safe program must never
      // show a dynamic race observation (the soundness direction); a racy
      // verdict without one is an (allowed) over-approximation.
      bool StaticSafe = *Verdict != analysis::RaceVerdict::PotentiallyRacy;
      if (StaticSafe && R.RaceSteps > 0)
        Cfg.Telem->Counters.add("analysis.soundness_violation", 1);
      else if (!StaticSafe && R.RaceSteps == 0)
        Cfg.Telem->Counters.add("analysis.false_positive", 1);
      else
        Cfg.Telem->Counters.add("analysis.agree", 1);
    }
  };

  memo::MemoContext *MC = ECfg.Memo;
  bool UseCache = MC && MC->options().Cache;
  memo::Fp128 Key;
  if (UseCache) {
    Key = psExploreKey(P, ECfg);
    uint64_t ProbeT0 = ECfg.Telem ? nowMonotonicNs() : 0;
    std::shared_ptr<const PsBehaviorSet> Hit = MC->lookupAs<PsBehaviorSet>(
        memo::MemoContext::Table::PsBehaviors, Key);
    if (ECfg.Telem)
      ECfg.Telem->Counters.recordHist("memo.probe.us",
                                      (nowMonotonicNs() - ProbeT0) / 1000);
    if (Hit) {
      MC->noteHit();
      if (ECfg.Telem)
        ECfg.Telem->Counters.add("memo.hits", 1);
      PsBehaviorSet R = *Hit;
      stamp(R);
      return R;
    }
    MC->noteMiss();
    if (ECfg.Telem)
      ECfg.Telem->Counters.add("memo.misses", 1);
  }
  PsBehaviorSet R = exploreLevels(P, ECfg);
  // Guard causes (deadline, memory, cancellation) are timing-dependent;
  // such results must never answer for a future run.
  if (UseCache && !isGuardCause(R.Cause))
    MC->insertAs<PsBehaviorSet>(memo::MemoContext::Table::PsBehaviors, Key,
                                std::make_shared<const PsBehaviorSet>(R));
  stamp(R);
  return R;
}

std::vector<PsMachineState> pseq::findPsnaWitness(const Program &P,
                                                  const PsConfig &Cfg,
                                                  const std::string &Want) {
  // Resolve marker skipping exactly like explorePsna so the witness search
  // walks the same transition system as the reported behavior set.
  PsConfig ECfg = Cfg;
  resolveLint(P, ECfg);
  PsMachine M(P, ECfg);
  // BFS with parent indices so the path can be reconstructed.
  std::vector<PsMachineState> States;
  std::vector<unsigned> Parent;
  std::unordered_set<PsMachineState, StateHash> Visited;
  std::deque<unsigned> Work;

  PsMachineState Init = M.initialState();
  Init.normalize();
  Visited.insert(Init);
  States.push_back(std::move(Init));
  Parent.push_back(~0u);
  Work.push_back(0);

  auto path = [&](unsigned Idx) {
    std::vector<PsMachineState> Out;
    for (unsigned I = Idx; I != ~0u; I = Parent[I])
      Out.push_back(States[I]);
    std::reverse(Out.begin(), Out.end());
    return Out;
  };

  while (!Work.empty()) {
    if (States.size() > Cfg.MaxStates)
      break;
    if (Cfg.Guard && Cfg.Guard->checkpoint() != TruncationCause::None)
      break; // witness search is best-effort; a trip just ends it empty
    unsigned Idx = Work.front();
    Work.pop_front();
    // Note: States may reallocate while expanding; index, don't hold refs.
    if (States[Idx].Bottom) {
      if (Want == "UB")
        return path(Idx);
      continue;
    }
    if (States[Idx].allDone()) {
      PsBehavior B;
      for (const PsThread &T : States[Idx].Threads)
        B.Rets.push_back(T.Prog.retVal());
      B.Outs = States[Idx].Outs;
      if (B.str() == Want)
        return path(Idx);
      continue;
    }
    unsigned NumThreads = static_cast<unsigned>(States[Idx].Threads.size());
    for (unsigned Tid = 0; Tid != NumThreads; ++Tid) {
      for (PsMachineState &Next : M.threadSuccessors(States[Idx], Tid)) {
        if (!Visited.insert(Next).second)
          continue;
        States.push_back(std::move(Next));
        Parent.push_back(Idx);
        Work.push_back(static_cast<unsigned>(States.size() - 1));
      }
    }
  }
  return {};
}

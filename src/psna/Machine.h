//===- psna/Machine.h - PS^na machine transitions ---------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PS^na machine (Fig. 5): thread configuration steps (read, write with
/// multi-message non-atomic writes, promise, lower, racy-read, racy-write,
/// silent/choose/fail) and machine steps with per-step certification.
///
/// Executability choices (all documented in DESIGN.md):
///  * machine steps are taken one thread micro-step at a time, certifying
///    after each step with outstanding promises (a sound, standard
///    granularity: Fig. 5's →+ decomposes into certified single steps for
///    this fragment);
///  * timestamps are placed canonically: new messages occupy the middle of
///    a gap (leaving both sides insertable) or a unit slot past the
///    maximum; RMW writes attach From to the read timestamp, which is
///    exactly PS2.1's mechanism for update atomicity;
///  * promised messages carry view ⊥ (non-atomic locations, plus valueless
///    NAMsg) or [x↦t] (atomic locations); release writes are never
///    promised (PS1's restriction — release fulfillment is not needed by
///    any example in the paper);
///  * states are kept normalized by ranking each location's timestamps,
///    which merges order-isomorphic states. Every view entry and promise id
///    is some message's To, so the ranks are a function of the memory
///    alone, per location: a step that inserts a message re-ranks that
///    location only, and every other step leaves a normalized state
///    normalized;
///  * certification runs on the projection ⟨T_π, M⟩ (the other threads'
///    views and the outputs zeroed), so its verdict is a function of
///    ⟨π, T_π, M⟩. An exploration keeps one CertTable of those verdicts:
///    each distinct key is searched once, and a table hit answers exactly
///    as the search would have (verdict and budget hit alike). A search
///    that fails without running out of budget also enters every state it
///    visited as failing: a search from any of them explores a subset of
///    the same states (DESIGN.md "Failed certification searches").
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_PSNA_MACHINE_H
#define PSEQ_PSNA_MACHINE_H

#include "exec/ThreadPool.h"
#include "memo/Fingerprint.h"
#include "psna/Thread.h"
#include "support/NodePool.h"
#include "support/ValueDomain.h"

#include <memory>
#include <unordered_set>
#include <utility>

namespace pseq {

namespace obs {
struct Telemetry;
} // namespace obs

namespace guard {
class ResourceGuard;
} // namespace guard

namespace memo {
class MemoContext;
} // namespace memo

/// Bounding knobs of the PS^na explorer.
struct PsConfig {
  ValueDomain Domain = ValueDomain::binary();
  unsigned PromiseBudget = 1;  ///< max outstanding promises per thread
  unsigned SplitBudget = 0;    ///< extra messages per non-atomic write
  unsigned CertNodeBudget = 20000; ///< certification search nodes
  unsigned MaxStates = 400000; ///< explorer state cap
  /// Ablation knob: rank timestamps after every step (merging
  /// order-isomorphic states). Off, exploration still terminates on
  /// loop-free programs but visits many more states (bench_psna_explore).
  bool Normalize = true;
  /// Run the static race analyzer (analysis/RaceLint.h) before exploring
  /// and skip valueless NAMsg race markers when the verdict proves no
  /// race transition can fire; when moreover no relaxed write or RMW
  /// exists, explore at PromiseBudget 0 (DESIGN.md "Promise-free fast
  /// path"). Behaviors are bit-identical either way (DESIGN.md "Static
  /// race analysis"); only the state count shrinks. --no-lint in the
  /// drivers, which makes lint-off the full-enumeration oracle.
  bool Lint = true;
  /// Derived knob (set by the explorer from the analyzer's verdict; tests
  /// may force it): suppress valueless NAMsg marker promises.
  bool SkipNaMarkers = false;
  /// Worker count for the explorer: 1 runs on the calling thread, 0 uses
  /// all hardware threads. The frontier is expanded level-synchronously
  /// and merged in pop order, so behaviors, StatesExplored, and the
  /// truncation cause are identical for every value (see DESIGN.md).
  /// Defaults to the PSEQ_THREADS environment variable (unset = 1).
  unsigned NumThreads = exec::defaultNumThreads();
  /// Optional telemetry (borrowed; see obs/Telemetry.h). Null — the
  /// default — keeps the explorer and machine on their fast paths.
  obs::Telemetry *Telem = nullptr;
  /// Optional resource guard (borrowed; see guard/Guard.h): deadline,
  /// memory budget, cancellation. Null — the default — means ungoverned.
  guard::ResourceGuard *Guard = nullptr;
  /// Optional memoization context (borrowed; see memo/MemoContext.h):
  /// sleep-set pruning inside one exploration plus a cross-run behavior
  /// cache keyed by (program, config) fingerprints. Null — the default —
  /// keeps the exact unpruned paths.
  memo::MemoContext *Memo = nullptr;
  /// Cache-partitioning salt mixed into the behavior-cache key and into
  /// every key built from this config (the atlas's verdicts, the
  /// pipeline's salt that the validation server keys its verdicts on), so
  /// entries recorded under one setup can never be served to another.
  /// Callers sharing one MemoContext across different pipeline/atlas
  /// configurations set it to a hash of the active setup (runPipeline
  /// uses pipelineConfigSalt); 0 — the default — is a valid shared
  /// partition.
  uint64_t ConfigSalt = 0;
};

/// A whole-machine state ⟨T, M⟩ plus the system-call output so far.
///
/// Threads are shared like the memory's message lists: each is immutable
/// once built, with its hash cached, and copying a state copies one
/// pointer per thread. A step replaces only the thread that moved, through
/// setThread().
struct PsMachineState {
  PsMemory Mem;
  bool Bottom = false;
  std::vector<Value> Outs;

  unsigned numThreads() const { return static_cast<unsigned>(Threads.size()); }
  const PsThread &thread(unsigned Tid) const { return Threads[Tid]->T; }
  /// The cached PsThread::hash() of thread \p Tid.
  uint64_t threadHash(unsigned Tid) const { return Threads[Tid]->Hash; }

  /// Replaces thread \p Tid (appends it when \p Tid == numThreads());
  /// every other state sharing the old thread keeps it unchanged.
  void setThread(unsigned Tid, PsThread T);

  bool allDone() const;

  /// Ranks every location's message endpoints to 0..k and renames every
  /// timestamp in place, merging order-isomorphic states. Exact because
  /// every view entry and promise id is some message's To (each step
  /// keeps it so).
  void normalize();

  /// normalize() at location \p Loc alone: ranks its endpoints and renames
  /// its timestamps in the lists, views and promises. Shares every list
  /// and thread whose entries at Loc keep their rank.
  void rerank(unsigned Loc);

  /// The projection ⟨T_Tid, M⟩ that certification searches from: the
  /// memory and thread \p Tid kept, the other threads blanked to one
  /// shared zero view without promises, no outputs.
  PsMachineState project(unsigned Tid) const;

  bool operator==(const PsMachineState &O) const;
  uint64_t hash() const;
  std::string str() const;

private:
  /// One thread and its hash.
  struct SharedThread {
    PsThread T;
    uint64_t Hash = 0;
  };
  using ThreadPtr = std::shared_ptr<const SharedThread>;
  static ThreadPtr makeThread(PsThread T);
  PoolVector<ThreadPtr> Threads;
};

/// Successor states, in step order.
using PsStates = PoolVector<PsMachineState>;

/// Hashes a state for the explorers' and certification's visited sets.
struct PsStateHash {
  size_t operator()(const PsMachineState &S) const {
    return static_cast<size_t>(S.hash());
  }
};

/// The explorers' and certification's visited sets.
using PsStateSet =
    std::unordered_set<PsMachineState, PsStateHash,
                       std::equal_to<PsMachineState>,
                       PoolAllocator<PsMachineState>>;

/// One certification search's outcome.
struct CertVerdict {
  bool Ok = false;        ///< the thread can fulfil its promises alone
  bool BudgetHit = false; ///< the search ran out of CertNodeBudget
};

/// Certification verdicts keyed by PsMachine::certKey (⟨π, T_π, M⟩). One
/// table lives for one exploration; the explorer freezes it while a level
/// expands and inserts the verdicts of merged expansions in pop order, so
/// which searches run is a function of the BFS level alone.
using CertTable = PoolMap<memo::Fp128, CertVerdict, memo::Fp128Hash>;

/// Rough retained bytes of one CertTable entry (key, verdict, node and
/// bucket pointers), for ResourceGuard accounting.
constexpr uint64_t CertEntryBytes = 64;

/// The PS^na transition relation for a whole program.
class PsMachine {
  const Program &Prog;
  PsConfig Cfg;
  /// Per thread: the locations stepPromise can target (NaWritten ∪
  /// AtomicAccessed), in increasing order.
  std::vector<std::vector<unsigned>> Writable;
  /// The values a promise may carry: the domain plus undef.
  std::vector<Value> ReadVals;

public:
  PsMachine(const Program &Prog, PsConfig Cfg);

  const Program &program() const { return Prog; }
  const PsConfig &config() const { return Cfg; }

  /// ⟨λπ.⟨σ_π, V_init, ∅⟩, M_init⟩.
  PsMachineState initialState() const;

  /// All certified machine steps in which thread \p Tid moves once.
  /// With Normalize on, \p S must be normalized, and so are the
  /// successors. (machine: normal) steps are filtered by
  /// certification; (machine: failure) steps yield Bottom states.
  PsStates threadSuccessors(const PsMachineState &S, unsigned Tid) const;

  /// Certification: thread \p Tid, running alone against S.Mem, can
  /// fulfill all its promises (bounded search from the projection
  /// ⟨T_Tid, M⟩; a budget miss counts as not certified and is recorded by
  /// the caller via certBudgetHit()). A key already in the attached table
  /// or among this machine's pending verdicts is answered without a
  /// search.
  bool certifiable(const PsMachineState &S, unsigned Tid) const;

  /// The certification key of thread \p Tid at \p S: ⟨Tid, T_Tid, M⟩.
  static memo::Fp128 certKey(const PsMachineState &S, unsigned Tid);

  /// Attaches a table of earlier verdicts (borrowed, read-only; null
  /// detaches). Searches this machine runs are queued as pending verdicts
  /// until takeCertVerdicts(); the table itself is never written here.
  void setCertTable(const CertTable *T) { Table = T; }

  /// Moves out the verdicts searched since the last call.
  CertTable takeCertVerdicts() const { return std::exchange(Pending, {}); }

  /// True when some certification search ran out of budget (verdicts may
  /// then under-approximate the allowed behaviors).
  bool certBudgetHit() const { return CertBudgetHit; }

  /// Dynamic race observations: micro-steps outside certification in which
  /// isRacy() enabled a racy-read/racy-write/racy-update transition. The
  /// adequacy/fuzz harnesses cross-validate the static verdict against
  /// this oracle (a statically race-free program must keep it at 0).
  uint64_t raceSteps() const { return RaceStepCount; }
  /// Valueless NAMsg marker promises emitted (outside certification).
  uint64_t naMarkers() const { return NaMarkerCount; }

private:
  const CertTable *Table = nullptr;
  mutable CertTable Pending;
  mutable bool CertBudgetHit = false;
  mutable uint64_t RaceStepCount = 0;
  mutable uint64_t NaMarkerCount = 0;

  /// Enumerates thread micro-steps (no certification); with Normalize on,
  /// the successors of a normalized state are normalized. When
  /// \p ForCertification, promise steps are disabled.
  PsStates microSteps(const PsMachineState &S, unsigned Tid,
                      bool ForCertification) const;

  void stepRead(const PsMachineState &S, unsigned Tid,
                const ProgState::Pending &Pend, PsStates &Out,
                bool ForCertification) const;
  void stepWrite(const PsMachineState &S, unsigned Tid,
                 const ProgState::Pending &Pend, PsStates &Out,
                 bool ForCertification) const;
  void stepRmw(const PsMachineState &S, unsigned Tid,
               const ProgState::Pending &Pend, PsStates &Out,
               bool ForCertification) const;
  void stepPromise(const PsMachineState &S, unsigned Tid,
                   PsStates &Out) const;
  void stepLower(const PsMachineState &S, unsigned Tid, PsStates &Out) const;
  void stepFail(const PsMachineState &S, unsigned Tid, PsStates &Out) const;

  /// Inserts \p M into \p S, re-ranking its location when normalizing.
  /// Called last, once the step has updated the moving thread.
  void insertMessage(PsMachineState &S, const PsMessage &M) const;

  /// Race detection (race-helper): the thread is unaware of some message
  /// at \p Loc; atomic accesses race only with valueless NAMsg markers.
  bool isRacy(const PsMachineState &S, unsigned Tid, unsigned Loc,
              bool AtomicAccess) const;

  /// The bounded DFS behind certifiable(), run from the projection. An
  /// exhausted search queues a failing verdict for every state it visited.
  CertVerdict searchCertification(const PsMachineState &S,
                                  unsigned Tid) const;
};

} // namespace pseq

#endif // PSEQ_PSNA_MACHINE_H

//===- exec/ThreadPool.h - Fixed pool for exploration fan-out ---*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel-execution layer shared by the four engines (the SEQ
/// behavior enumerator, the PS^na explorer, the translation validator, and
/// the adequacy harness). One process-wide pool of persistent workers runs
/// index-addressed batches: `run(N, Body)` executes Body(0) … Body(N-1)
/// concurrently and returns when all are done. Engines keep their output
/// deterministic by giving every worker an isolated arena (local Seen set,
/// local telemetry, local machine) and folding the per-index results in
/// index order afterwards — scheduling never leaks into results.
///
/// Nesting: a body that calls run() again (the validator fans out per
/// thread, each thread check fans out per initial state) executes the inner
/// batch sequentially inline on the calling worker. The partitioning is
/// unchanged, so determinism is preserved, and the pool cannot deadlock on
/// itself. `run(1, Body)` is always inline and does NOT mark the caller as
/// a pool worker, so a single-element outer fan-out leaves the pool free
/// for inner engines.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_EXEC_THREADPOOL_H
#define PSEQ_EXEC_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pseq::exec {

/// \returns std::thread::hardware_concurrency(), at least 1.
unsigned hardwareThreads();

/// Resolves a NumThreads knob: 0 means "all hardware threads", anything
/// else is taken literally (clamped to a sane ceiling).
unsigned resolveThreads(unsigned NumThreads);

/// The ceiling resolveThreads() clamps to. CLI front ends reject
/// --threads values above it up front (with a diagnostic) instead of
/// relying on the silent clamp.
unsigned maxThreads();

/// The default for SeqConfig/PsConfig NumThreads: the PSEQ_THREADS
/// environment variable when set ("0" = hardware concurrency), else 1.
/// Reading the environment once lets CI run the whole suite multi-threaded
/// without touching every call site.
unsigned defaultNumThreads();

/// The worker count one fan-out over \p Items runs with: \p NumThreads
/// resolved (0 = all hardware threads) and clamped to \p Items, or 1 on a
/// pool worker, where nested fan-outs run inline (see ThreadPool::run).
/// Engines size their per-worker arenas by it.
unsigned fanOutWidth(unsigned NumThreads, size_t Items = SIZE_MAX);

/// Lowest index known to have failed in a first-failure fan-out: folds
/// stop at the first failed index, so every body skips indices past it.
/// No index at or below the smallest failure is ever skipped, and at one
/// worker the bound reproduces a loop that breaks at its first failure.
class FirstFailure {
public:
  explicit FirstFailure(size_t Items) : Min(Items) {}

  /// True when \p Idx lies past a known failure.
  bool past(size_t Idx) const {
    return Idx > Min.load(std::memory_order_relaxed);
  }

  /// Records that \p Idx failed.
  void note(size_t Idx) {
    size_t Cur = Min.load(std::memory_order_relaxed);
    while (Idx < Cur &&
           !Min.compare_exchange_weak(Cur, Idx, std::memory_order_relaxed))
      ;
  }

private:
  std::atomic<size_t> Min;
};

/// A fixed pool of persistent worker threads executing index batches.
class ThreadPool {
public:
  /// The process-wide pool every engine shares. Threads are spawned lazily
  /// on first multi-worker run() and live for the process.
  static ThreadPool &global();

  /// Runs Body(0) … Body(NumWorkers-1), each exactly once, concurrently on
  /// the pool (the calling thread participates). Returns when all bodies
  /// finished. With NumWorkers <= 1, or when called from inside a pool
  /// worker, the bodies run sequentially inline on the caller.
  ///
  /// \p Cancel, when non-null, is a cooperative stop signal (typically
  /// guard::ResourceGuard::stopFlag()): once it reads true, not-yet-started
  /// bodies are drained — claimed and counted complete without running — so
  /// a deadline on one engine stops all its queued work. Bodies already
  /// running are not interrupted; engines poll the guard themselves.
  /// Callers that skip bodies this way must derive their verdict from the
  /// guard, not from per-body results alone (drained slots stay default).
  void run(unsigned NumWorkers, const std::function<void(unsigned)> &Body,
           const std::atomic<bool> *Cancel = nullptr);

  /// True on a thread currently executing a pool batch body (used by
  /// nested run() calls to degrade to inline execution).
  static bool insideWorker();

  /// Threads spawned so far (test introspection).
  unsigned spawned();

  /// Live profiling counters, maintained with relaxed atomics at batch and
  /// body granularity (bodies are whole per-worker work slices, so the
  /// accounting is far off any hot loop). Sampled mid-run by heartbeat
  /// probes and read at exit for the pool gauges; exec stays independent
  /// of obs — the obs side polls this, never the other way around.
  struct Stats {
    uint64_t Batches;       ///< multi-worker batches dispatched
    uint64_t InlineRuns;    ///< run() calls degraded to inline execution
    uint64_t BodiesRun;     ///< bodies actually executed
    uint64_t BodiesDrained; ///< bodies claimed-but-skipped by cancellation
    uint64_t Steals;        ///< bodies claimed by pool workers (not the
                            ///< dispatching caller) — work that migrated
    uint64_t IdleWaitNs;    ///< total time workers spent parked for work
    unsigned ThreadsSpawned;
    unsigned PendingBodies; ///< unclaimed bodies in the in-flight batch
  };
  Stats stats();

  ~ThreadPool();
  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

private:
  ThreadPool() = default;

  void workerLoop();
  void ensureThreads(unsigned N);

  std::mutex Mu;
  std::condition_variable WorkCv; ///< workers wait for a new generation
  std::condition_variable DoneCv; ///< run() waits for batch completion
  std::vector<std::thread> Threads;

  // Batch slot (guarded by Mu except the two atomics).
  uint64_t Generation = 0;
  const std::function<void(unsigned)> *Body = nullptr;
  const std::atomic<bool> *BatchCancel = nullptr;
  unsigned BatchSize = 0;
  std::atomic<unsigned> NextIdx{0};
  std::atomic<unsigned> Completed{0};
  unsigned InLoop = 0; ///< workers still claiming from this batch
  bool ShuttingDown = false;

  // Profiling tallies (see Stats). All relaxed; never load-bearing.
  std::atomic<uint64_t> StatBatches{0};
  std::atomic<uint64_t> StatInline{0};
  std::atomic<uint64_t> StatBodies{0};
  std::atomic<uint64_t> StatDrained{0};
  std::atomic<uint64_t> StatSteals{0};
  std::atomic<uint64_t> StatIdleNs{0};
};

/// Convenience fan-out: runs Fn(Item, Worker) for every Item in [0, Items)
/// on \p NumWorkers workers, items claimed dynamically. Deterministic
/// callers must make Fn's effect per-item (indexed results), not per-order.
/// \p Cancel as in ThreadPool::run — items claimed after it reads true are
/// skipped (their slots keep whatever default the caller initialized).
void parallelFor(unsigned NumWorkers, size_t Items,
                 const std::function<void(size_t, unsigned)> &Fn,
                 const std::atomic<bool> *Cancel = nullptr);

} // namespace pseq::exec

#endif // PSEQ_EXEC_THREADPOOL_H

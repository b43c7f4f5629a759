//===- exec/ThreadPool.cpp - Fixed pool for exploration fan-out -----------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "exec/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

using namespace pseq;
using namespace pseq::exec;

namespace {

// Ceiling on worker counts: --threads values beyond this are clamped (a
// typo like --threads 10000 must not spawn 10000 threads).
constexpr unsigned MaxThreads = 256;

thread_local bool InPoolWorker = false;

bool cancelRequested(const std::atomic<bool> *Cancel) {
  return Cancel && Cancel->load(std::memory_order_relaxed);
}

} // namespace

unsigned exec::hardwareThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

unsigned exec::resolveThreads(unsigned NumThreads) {
  if (NumThreads == 0)
    NumThreads = hardwareThreads();
  return NumThreads > MaxThreads ? MaxThreads : NumThreads;
}

unsigned exec::maxThreads() { return MaxThreads; }

unsigned exec::defaultNumThreads() {
  static unsigned Cached = [] {
    const char *Env = std::getenv("PSEQ_THREADS");
    if (!Env || !*Env)
      return 1u;
    char *End = nullptr;
    unsigned long V = std::strtoul(Env, &End, 10);
    if (End == Env || *End != '\0')
      return 1u;
    return resolveThreads(static_cast<unsigned>(V));
  }();
  return Cached;
}

unsigned exec::fanOutWidth(unsigned NumThreads, size_t Items) {
  if (ThreadPool::insideWorker())
    return 1;
  unsigned N = resolveThreads(NumThreads);
  return Items < N ? static_cast<unsigned>(std::max<size_t>(Items, 1)) : N;
}

ThreadPool &ThreadPool::global() {
  static ThreadPool Pool;
  return Pool;
}

bool ThreadPool::insideWorker() { return InPoolWorker; }

unsigned ThreadPool::spawned() {
  std::lock_guard<std::mutex> L(Mu);
  return static_cast<unsigned>(Threads.size());
}

ThreadPool::Stats ThreadPool::stats() {
  Stats S;
  S.Batches = StatBatches.load(std::memory_order_relaxed);
  S.InlineRuns = StatInline.load(std::memory_order_relaxed);
  S.BodiesRun = StatBodies.load(std::memory_order_relaxed);
  S.BodiesDrained = StatDrained.load(std::memory_order_relaxed);
  S.Steals = StatSteals.load(std::memory_order_relaxed);
  S.IdleWaitNs = StatIdleNs.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> L(Mu);
  S.ThreadsSpawned = static_cast<unsigned>(Threads.size());
  unsigned Claimed = NextIdx.load(std::memory_order_relaxed);
  S.PendingBodies = Claimed < BatchSize ? BatchSize - Claimed : 0;
  return S;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> L(Mu);
    ShuttingDown = true;
  }
  WorkCv.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void ThreadPool::ensureThreads(unsigned N) {
  // Caller participates, so N workers need N-1 pool threads.
  while (Threads.size() + 1 < N)
    Threads.emplace_back([this] { workerLoop(); });
}

void ThreadPool::run(unsigned NumWorkers,
                     const std::function<void(unsigned)> &BatchBody,
                     const std::atomic<bool> *Cancel) {
  NumWorkers = resolveThreads(NumWorkers == 0 ? 1 : NumWorkers);
  if (NumWorkers <= 1) {
    // Inline, and deliberately NOT flagged as a pool worker: a
    // single-element fan-out must leave inner engines free to use the
    // pool themselves.
    StatInline.fetch_add(1, std::memory_order_relaxed);
    if (!cancelRequested(Cancel)) {
      BatchBody(0);
      StatBodies.fetch_add(1, std::memory_order_relaxed);
    } else {
      StatDrained.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  if (InPoolWorker) {
    // Nested fan-out from inside a batch: run sequentially inline. The
    // partitioning (who computes what) is unchanged, so deterministic
    // merges downstream see identical per-index results.
    StatInline.fetch_add(1, std::memory_order_relaxed);
    for (unsigned I = 0; I != NumWorkers; ++I)
      if (!cancelRequested(Cancel)) {
        BatchBody(I);
        StatBodies.fetch_add(1, std::memory_order_relaxed);
      } else {
        StatDrained.fetch_add(1, std::memory_order_relaxed);
      }
    return;
  }

  std::unique_lock<std::mutex> L(Mu);
  StatBatches.fetch_add(1, std::memory_order_relaxed);
  ensureThreads(NumWorkers);
  Body = &BatchBody;
  BatchCancel = Cancel;
  BatchSize = NumWorkers;
  NextIdx.store(0, std::memory_order_relaxed);
  Completed.store(0, std::memory_order_relaxed);
  ++Generation;
  L.unlock();
  WorkCv.notify_all();

  // The caller claims indices like any worker. A cancelled batch still
  // claims every index (draining), so Completed reaches BatchSize and the
  // join below terminates — cancellation never turns into a hang.
  InPoolWorker = true;
  for (unsigned I;
       (I = NextIdx.fetch_add(1, std::memory_order_relaxed)) < NumWorkers;) {
    if (!cancelRequested(Cancel)) {
      BatchBody(I);
      StatBodies.fetch_add(1, std::memory_order_relaxed);
    } else {
      StatDrained.fetch_add(1, std::memory_order_relaxed);
    }
    Completed.fetch_add(1, std::memory_order_release);
  }
  InPoolWorker = false;

  L.lock();
  DoneCv.wait(L, [&] {
    return Completed.load(std::memory_order_acquire) == BatchSize &&
           InLoop == 0;
  });
  Body = nullptr;
  BatchCancel = nullptr;
  BatchSize = 0;
}

void ThreadPool::workerLoop() {
  uint64_t SeenGen = 0;
  std::unique_lock<std::mutex> L(Mu);
  while (true) {
    auto IdleStart = std::chrono::steady_clock::now();
    WorkCv.wait(L, [&] { return ShuttingDown || Generation != SeenGen; });
    StatIdleNs.fetch_add(
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - IdleStart)
                .count()),
        std::memory_order_relaxed);
    if (ShuttingDown)
      return;
    SeenGen = Generation;
    const std::function<void(unsigned)> *B = Body;
    const std::atomic<bool> *Cancel = BatchCancel;
    unsigned N = BatchSize;
    if (!B || N == 0)
      continue; // stale wakeup after the batch already drained
    ++InLoop;
    L.unlock();

    InPoolWorker = true;
    for (unsigned I;
         (I = NextIdx.fetch_add(1, std::memory_order_relaxed)) < N;) {
      StatSteals.fetch_add(1, std::memory_order_relaxed);
      if (!cancelRequested(Cancel)) {
        (*B)(I);
        StatBodies.fetch_add(1, std::memory_order_relaxed);
      } else {
        StatDrained.fetch_add(1, std::memory_order_relaxed);
      }
      Completed.fetch_add(1, std::memory_order_release);
    }
    InPoolWorker = false;

    L.lock();
    --InLoop;
    // Wake run() whether we finished the last body or merely left the
    // claim loop (it waits on both conditions).
    DoneCv.notify_all();
  }
}

void exec::parallelFor(unsigned NumWorkers, size_t Items,
                       const std::function<void(size_t, unsigned)> &Fn,
                       const std::atomic<bool> *Cancel) {
  NumWorkers = resolveThreads(NumWorkers == 0 ? 1 : NumWorkers);
  if (NumWorkers <= 1 || Items <= 1 || ThreadPool::insideWorker()) {
    for (size_t I = 0; I != Items; ++I)
      if (!cancelRequested(Cancel))
        Fn(I, 0);
    return;
  }
  if (NumWorkers > Items)
    NumWorkers = static_cast<unsigned>(Items);
  std::atomic<size_t> Next{0};
  ThreadPool::global().run(NumWorkers, [&](unsigned Worker) {
    for (size_t I;
         (I = Next.fetch_add(1, std::memory_order_relaxed)) < Items;) {
      if (!cancelRequested(Cancel))
        Fn(I, Worker);
    }
  });
}

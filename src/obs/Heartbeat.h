//===- obs/Heartbeat.h - Periodic progress snapshotter ----------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A low-overhead periodic snapshotter for long runs: a background thread
/// samples registered probes every interval and appends one `heartbeat`
/// JSONL line per tick, so a run's progress can be watched while it runs
/// (the Chrome trace is written only at its end).
///
/// Probes are plain `double()` callables registered before start(). They
/// are invoked from the heartbeat thread while engines run, so a probe may
/// only read lock-free state: the exec::ThreadPool stats snapshot, the
/// guard's memory counters, memo hit/miss atomics, SpanRecorder totals.
/// The obs::Stats maps are NOT safe to probe mid-run — the layering keeps
/// that mistake hard to make, since the heartbeat writes its own file and
/// never touches a Telemetry.
///
/// Output schema, one JSON object per line:
///   {"seq":<n>,"ms":<t>,"ev":"heartbeat","<probe>":<value>,...}
/// where `seq` counts the lines and `ms` is the wall time since start().
/// A final tick is always emitted from stop(), so even a run shorter than
/// one interval leaves a record.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_OBS_HEARTBEAT_H
#define PSEQ_OBS_HEARTBEAT_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace pseq::obs {

/// Interval-driven probe sampler writing heartbeat JSONL.
class Heartbeat {
public:
  Heartbeat() = default;
  ~Heartbeat() { stop(); }
  Heartbeat(const Heartbeat &) = delete;
  Heartbeat &operator=(const Heartbeat &) = delete;

  /// Registers a probe sampled on every tick. Call before start(); \p Fn
  /// must be thread-safe and lock-free (see the file comment).
  void addProbe(std::string Name, std::function<double()> Fn);

  /// Opens \p Path and starts the sampler thread with the given tick
  /// interval. \returns false when the path is not writable or the
  /// heartbeat is already running.
  bool start(const std::string &Path, uint64_t IntervalMs);

  /// Stops the sampler, emits one final tick, and flushes. Idempotent.
  void stop();

  /// Ticks emitted so far (including the final one after stop()).
  uint64_t beats() const { return Beats.load(std::memory_order_relaxed); }

  bool running() const { return Worker.joinable(); }

private:
  void tick();

  std::vector<std::pair<std::string, std::function<double()>>> Probes;
  std::ofstream Out; ///< written by the sampler thread
  uint64_t Seq = 0;
  std::chrono::steady_clock::time_point Started;
  std::thread Worker;
  std::mutex Mu;
  std::condition_variable Cv;
  bool StopRequested = false;
  uint64_t IntervalMs = 0;
  std::atomic<uint64_t> Beats{0};
};

} // namespace pseq::obs

#endif // PSEQ_OBS_HEARTBEAT_H

//===- obs/Telemetry.h - The per-run telemetry bundle -----------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The handle the configs (SeqConfig, PsConfig, PipelineOptions) carry: a
/// counter/gauge registry, a timer tree, and an optional trace sink. All
/// engines treat a null Telemetry pointer as "telemetry off" and skip every
/// observation behind a single branch, so the default-constructed configs
/// cost nothing.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_OBS_TELEMETRY_H
#define PSEQ_OBS_TELEMETRY_H

#include "obs/Counters.h"
#include "obs/Span.h"
#include "obs/Timer.h"
#include "obs/TraceSink.h"

#include <memory>
#include <mutex>
#include <vector>

namespace pseq::obs {

/// One run's worth of telemetry. Non-copyable; share by pointer.
struct Telemetry {
  Stats Counters;
  TimerTree Timers;
  /// Borrowed, not owned; null means "no tracing". Prefer tracing() +
  /// trace() over touching this directly.
  TraceSink *Sink = nullptr;
  /// Borrowed, not owned; null means "no span recording". WorkerTelemetry
  /// hands the same recorder to every worker (lanes are per-thread, so
  /// sharing is free); sites open spans with obs::ScopedSpan.
  SpanRecorder *Spans = nullptr;

  /// Folds a worker arena's counter registry into this one (counters add,
  /// gauges max). WorkerTelemetry folds its private worker registries
  /// back through this after the join; the lock makes concurrent folds
  /// safe. Timers and traces stay orchestrator-only — they are ordered
  /// artifacts, not tallies.
  void mergeCounters(const Stats &S) {
    std::lock_guard<std::mutex> L(MergeMu);
    Counters.merge(S);
  }

  bool tracing() const { return Sink && Sink->enabled(); }

  /// Emits an event when tracing is on. Callers on hot paths should guard
  /// with tracing() first so the field vector is never built needlessly.
  void trace(std::string_view Kind, const std::vector<TraceField> &Fields) {
    if (tracing())
      Sink->event(Kind, Fields);
  }

  /// Flight-recorder shutdown: emits one "run.final" event carrying \p
  /// Reason plus every counter and gauge, then flushes the sink. Engines
  /// call this when a guard truncation cuts a run short, and the
  /// fork-isolation harness calls it before a worker may die — either way
  /// the JSONL tail ends on a complete, self-describing line. Safe to call
  /// with tracing off (it degrades to a flush-only no-op) and from the
  /// orchestrator thread only.
  void finalSnapshot(std::string_view Reason);

private:
  std::mutex MergeMu;
};

/// The telemetry each worker of one fan-out records into — the only place
/// an engine builds worker telemetry. With one worker it hands out the
/// caller's own Telemetry, so timers, trace events and run.final land
/// exactly where an unparallelized run puts them. With more, every worker
/// gets a private counter registry sharing the caller's span recorder;
/// merge() folds the registries back after the join.
class WorkerTelemetry {
public:
  /// \p Caller may be null (telemetry off); \p Workers is the fan-out
  /// width (exec::fanOutWidth).
  WorkerTelemetry(Telemetry *Caller, unsigned Workers);

  /// The telemetry worker \p W records into (null iff the caller's is).
  Telemetry *operator[](unsigned W) const {
    return Private.empty() ? Caller : Private[W].get();
  }

  /// Folds the private registries into the caller's. Call once, after the
  /// join and before the caller emits its own totals.
  void merge();

private:
  Telemetry *Caller;
  std::vector<std::unique_ptr<Telemetry>> Private;
};

} // namespace pseq::obs

#endif // PSEQ_OBS_TELEMETRY_H

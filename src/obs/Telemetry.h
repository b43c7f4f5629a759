//===- obs/Telemetry.h - The per-run telemetry bundle -----------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The handle the configs (SeqConfig, PsConfig, PipelineOptions) carry: a
/// counter/gauge registry and an optional span recorder (the only timing
/// channel and the only event stream; obs/Report.h folds it into per-name
/// times, obs/TraceExport.h writes it out with a closing run.final). All
/// engines treat a null Telemetry pointer as "telemetry off" and skip
/// every observation behind a single branch, so the default-constructed
/// configs cost nothing.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_OBS_TELEMETRY_H
#define PSEQ_OBS_TELEMETRY_H

#include "obs/Counters.h"
#include "obs/Span.h"

#include <memory>
#include <mutex>
#include <vector>

namespace pseq::obs {

/// One run's worth of telemetry. Non-copyable; share by pointer.
struct Telemetry {
  Stats Counters;
  /// Borrowed, not owned; null means "no span recording". WorkerTelemetry
  /// hands the same recorder to every worker (lanes are per-thread, so
  /// sharing is free); sites open spans with obs::ScopedSpan and record
  /// instant events with SpanRecorder::instant.
  SpanRecorder *Spans = nullptr;

  /// Folds a worker arena's counter registry into this one (counters add,
  /// gauges max). WorkerTelemetry folds its private worker registries
  /// back through this after the join; the lock makes concurrent folds
  /// safe. Spans and instants need no fold: workers share the recorder.
  void mergeCounters(const Stats &S) {
    std::lock_guard<std::mutex> L(MergeMu);
    Counters.merge(S);
  }

private:
  std::mutex MergeMu;
};

/// The telemetry each worker of one fan-out records into — the only place
/// an engine builds worker telemetry. With one worker it hands out the
/// caller's own Telemetry, exactly as an unparallelized run records. With
/// more, every worker gets a private counter registry sharing the caller's
/// span recorder; merge() folds the registries back after the join.
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

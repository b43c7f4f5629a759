//===- obs/Report.h - Telemetry rendering -----------------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a Telemetry bundle as a human-readable summary table or as one
/// machine-readable JSON object. Both renderings list every key in sorted
/// order: counters, gauges and histograms by key, spans by name.
///
/// JSON shape:
///   {"counters":{"k":v,...},"gauges":{"k":v,...},
///    "histograms":{"k":{"count":n,"sum":s,"min":m,"max":M,
///                       "p50":v,"p90":v,"p99":v,"buckets":[[b,c],...]},...},
///    "spans":[{"name":"a","count":n,"ms":t,"self_ms":s},...]}
/// Histogram buckets are sparse [bucket index, count] pairs; percentiles
/// are derived from the buckets, so two runs with equal buckets render
/// byte-identical histogram objects. Span rows aggregate the attached
/// SpanRecorder (empty without one) per name, not per call path: a worker
/// lane starts at depth 0, so a path tree would change with the worker
/// count, while per-name counts do not.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_OBS_REPORT_H
#define PSEQ_OBS_REPORT_H

#include "obs/Telemetry.h"

#include <string>
#include <vector>

namespace pseq::obs {

/// One span name's totals over every lane of a recorder.
struct SpanTotal {
  std::string Name;
  uint64_t Count = 0;
  double Ms = 0;     ///< summed span durations
  double SelfMs = 0; ///< Ms minus the spans nested directly inside, per lane
};

/// Per-name totals of \p R, sorted by name. Only call after the recording
/// threads joined.
std::vector<SpanTotal> spanTotals(const SpanRecorder &R);

/// Human-readable summary: counters, gauges, histogram percentile rows
/// (p50/p90/p99/max and count), and the span totals.
std::string renderReportTable(const Telemetry &T);

/// One histogram as a JSON object (the "histograms" member value above).
std::string renderHistogramJson(const Histogram &H);

/// One JSON object (no trailing newline); see the schema above.
std::string renderReportJson(const Telemetry &T);

/// Writes renderReportJson + '\n' to \p Path. \returns false on I/O error.
bool writeReportJson(const Telemetry &T, const std::string &Path);

} // namespace pseq::obs

#endif // PSEQ_OBS_REPORT_H

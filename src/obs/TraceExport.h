//===- obs/TraceExport.h - Chrome trace-event / Perfetto export -*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes a run's telemetry into the Chrome trace-event JSON format
/// (`{"traceEvents":[...]}`), the dialect ui.perfetto.dev and
/// chrome://tracing load directly. This file is the run's one event
/// artifact:
///  * every span of the attached SpanRecorder becomes a balanced pair of
///    "B"/"E" duration events on the lane's tid; the recorded nesting
///    depths reconstruct exact begin/end ordering, so the output is
///    well-formed even though lanes record spans at *end* time;
///  * every instant event becomes an "i" event with its args, after its
///    lane's spans;
///  * one closing `run.final` instant carries the run's reason, every
///    counter and gauge, and the `spans.recorded`/`spans.dropped` totals.
///    It is rendered from the Telemetry registry, never through a lane, so
///    a full lane cannot drop it. The CI baseline gate reads its args
///    (tools/check_bench_baseline.py).
///
/// Timestamps are microseconds (the format's unit) since the recorder's
/// epoch, with nanosecond fractions preserved.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_OBS_TRACEEXPORT_H
#define PSEQ_OBS_TRACEEXPORT_H

#include "obs/Telemetry.h"

#include <string>
#include <string_view>

namespace pseq::obs {

/// Renders \p T (its span recorder's lanes, when one is attached, then the
/// run.final instant with \p Reason) as one Chrome trace-event JSON object.
/// \p ProcessName labels the process track in the Perfetto UI. Call only
/// after the recording threads have joined.
std::string renderChromeTrace(const Telemetry &T,
                              const std::string &ProcessName,
                              std::string_view Reason);

/// Writes renderChromeTrace + '\n' to \p Path, atomically (temp + rename),
/// so a rewrite mid-run leaves the previous file or the new one, never a
/// torn one. \returns false on I/O error.
bool writeChromeTrace(const Telemetry &T, const std::string &Path,
                      const std::string &ProcessName,
                      std::string_view Reason);

} // namespace pseq::obs

#endif // PSEQ_OBS_TRACEEXPORT_H

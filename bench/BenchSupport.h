//===- bench/BenchSupport.h - Shared bench main with --json -----*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared entry point for the bench_* binaries. Every harness accepts
///
///   bench_xxx [--json <path>] [--threads N] [--deadline-ms N] [--mem-mb N]
///             [--no-memo] [--trace-out <path>]
///             [--heartbeat <path>] [--heartbeat-ms N]
///             [google-benchmark flags...]
///
/// --threads N sets the engines' worker count (0 = all hardware threads;
/// default from PSEQ_THREADS, else 1); benchmarks read it via numThreads()
/// and pass it into their SeqConfig/PsConfig/PipelineOptions.
///
/// --deadline-ms / --mem-mb arm a ResourceGuard governing the whole run
/// (read via resourceGuard()): once either budget trips, remaining engine
/// work returns bounded verdicts instead of running unchecked. Numeric
/// flags are parsed strictly — a malformed value is a usage error, never a
/// silent 0.
///
/// The flight-recorder flags:
///  * --trace-out <path>  — Chrome trace-event / Perfetto JSON built from
///                          the engines' causal spans and instant events,
///                          written at exit and ending in a run.final
///                          instant with every counter and gauge.
///  * --heartbeat <path>  — progress JSONL sampled by a background thread
///                          every --heartbeat-ms (default 500) from the
///                          pool/guard/memo/span gauges.
///
/// Without any of --json/--trace-out/--heartbeat the run is
/// byte-for-byte the plain google-benchmark harness: telemetry() returns
/// null, so every engine stays on its uninstrumented fast path. With any of
/// them, telemetry is enabled; with --json one JSON object is written to
/// <path>:
///
///   {"benchmarks": [{"name":..., "real_time":..., "cpu_time":...,
///                    "time_unit":..., "iterations":..., "counters":{...}},
///                   ...],
///    "memo": {...},
///    "telemetry": <obs::renderReportJson>}
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_BENCH_BENCHSUPPORT_H
#define PSEQ_BENCH_BENCHSUPPORT_H

#include "exec/ThreadPool.h"
#include "guard/Guard.h"
#include "guard/Signals.h"
#include "memo/MemoContext.h"
#include "obs/Heartbeat.h"
#include "obs/JsonValue.h"
#include "obs/Report.h"
#include "opt/Validator.h"
#include "obs/Span.h"
#include "obs/Telemetry.h"
#include "obs/TraceExport.h"
#include "support/AtomicFile.h"
#include "support/CliArgs.h"
#include "support/Truncation.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

namespace pseq {
namespace benchsupport {

namespace detail {
inline obs::Telemetry *&telemetrySlot() {
  static obs::Telemetry *Slot = nullptr;
  return Slot;
}
inline unsigned &numThreadsSlot() {
  static unsigned Slot = exec::defaultNumThreads();
  return Slot;
}
inline guard::ResourceGuard *&guardSlot() {
  static guard::ResourceGuard *Slot = nullptr;
  return Slot;
}
inline memo::MemoContext *&memoSlot() {
  static memo::MemoContext *Slot = nullptr;
  return Slot;
}
inline ValidationMethod &methodSlot() {
  static ValidationMethod Slot = ValidationMethod::Advanced;
  return Slot;
}
} // namespace detail

/// The harness telemetry: null unless --json was passed (so default runs
/// measure the uninstrumented engines). Benchmarks pass this into their
/// SeqConfig/PsConfig/PipelineOptions.
inline obs::Telemetry *telemetry() { return detail::telemetrySlot(); }

/// The worker count requested with --threads (0 = hardware concurrency;
/// defaults to PSEQ_THREADS, else 1). Benchmarks pass this into their
/// SeqConfig/PsConfig/PipelineOptions.
inline unsigned numThreads() { return detail::numThreadsSlot(); }

/// The run-wide guard armed by --deadline-ms / --mem-mb, or null when
/// neither flag was given. Benchmarks pass this into their configs; a
/// governed run degrades to bounded verdicts once a budget trips.
inline guard::ResourceGuard *resourceGuard() { return detail::guardSlot(); }

/// The run-wide memoization context, shared across every benchmark of the
/// binary (repeated iterations of the same workload hit the caches), or
/// null when --no-memo was passed. Benchmarks pass this into their
/// SeqConfig/PsConfig/PipelineOptions.
inline memo::MemoContext *memoContext() { return detail::memoSlot(); }

/// The validation method requested with --method (default Advanced).
/// Benchmarks that validate transformations pass this into their
/// PipelineOptions / validateTransform calls, so one binary measures any
/// decision-procedure lane (`--method simulation` selects the Fig. 6
/// simulation).
inline ValidationMethod validationMethod() { return detail::methodSlot(); }

namespace detail {

/// One recorded benchmark run.
struct Row {
  std::string Name;
  double RealTime = 0;
  double CpuTime = 0;
  std::string TimeUnit;
  uint64_t Iterations = 0;
  bool Error = false;
  std::vector<std::pair<std::string, double>> Counters;
};

/// Console output as usual, plus a record of every run for the JSON dump.
class RecordingReporter : public benchmark::ConsoleReporter {
public:
  std::vector<Row> Rows;

  void ReportRuns(const std::vector<Run> &Reports) override {
    for (const Run &R : Reports) {
      Row Out;
      Out.Name = R.benchmark_name();
      Out.RealTime = R.GetAdjustedRealTime();
      Out.CpuTime = R.GetAdjustedCPUTime();
      Out.TimeUnit = benchmark::GetTimeUnitString(R.time_unit);
      Out.Iterations = static_cast<uint64_t>(R.iterations);
      Out.Error = R.error_occurred;
      for (const auto &[Name, Counter] : R.counters)
        Out.Counters.emplace_back(Name, static_cast<double>(Counter));
      Rows.push_back(std::move(Out));
    }
    benchmark::ConsoleReporter::ReportRuns(Reports);
  }
};

inline bool writeJson(const std::string &Path, const std::vector<Row> &Rows,
                      const obs::Telemetry &Telem,
                      const memo::MemoContext *Memo) {
  std::string Out = "{\"benchmarks\":[";
  for (size_t I = 0; I != Rows.size(); ++I) {
    const Row &R = Rows[I];
    if (I)
      Out += ",";
    Out += "{\"name\":\"" + obs::jsonEscape(R.Name) + "\"";
    Out += ",\"real_time\":" + obs::jsonNumber(R.RealTime);
    Out += ",\"cpu_time\":" + obs::jsonNumber(R.CpuTime);
    Out += ",\"time_unit\":\"" + obs::jsonEscape(R.TimeUnit) + "\"";
    Out += ",\"iterations\":" + std::to_string(R.Iterations);
    if (R.Error)
      Out += ",\"error\":true";
    Out += ",\"counters\":{";
    for (size_t C = 0; C != R.Counters.size(); ++C) {
      if (C)
        Out += ",";
      Out += "\"" + obs::jsonEscape(R.Counters[C].first) +
             "\":" + obs::jsonNumber(R.Counters[C].second);
    }
    Out += "}}";
  }
  Out += "]";

  // Memo block for the baseline gate (check_bench_baseline.py --group bench):
  // total engine states explored plus the cache/prune counters.
  uint64_t States = Telem.Counters.counter("seq.enum.states_expanded") +
                    Telem.Counters.counter("psna.explore.states_expanded");
  Out += ",\"memo\":{";
  Out += "\"enabled\":" + std::string(Memo ? "true" : "false");
  Out += ",\"states_explored\":" + std::to_string(States);
  Out += ",\"memo_hits\":" + std::to_string(Memo ? Memo->hits() : 0);
  Out += ",\"memo_misses\":" + std::to_string(Memo ? Memo->misses() : 0);
  Out += ",\"pruned_states\":" + std::to_string(Memo ? Memo->pruned() : 0);
  Out += "}";

  Out += ",\"telemetry\":" + obs::renderReportJson(Telem) + "}\n";

  // Atomic (temp + rename): the perf gate parses this file; a bench run
  // killed mid-write must not leave a truncated JSON behind.
  return support::writeFileAtomic(Path, Out);
}

} // namespace detail

/// Runs the harness: strips `--json <path>` (or `--json=<path>`) and
/// `--threads N` (or `--threads=N`), forwards everything else to
/// google-benchmark, and — when --json was given — enables telemetry and
/// writes run timings plus the telemetry report as a single JSON object to
/// the path.
inline int benchMain(int Argc, char **Argv) {
  std::string JsonPath, TraceOutPath, HeartbeatPath;
  uint64_t DeadlineMs = 0, MemMb = 0, HeartbeatMs = 500;
  bool NoMemo = false;
  std::vector<char *> Args;

  // Strict flags: a malformed or missing value must fail loudly, never
  // parse as 0 (which would silently mean "all hardware threads" / "no
  // budget") or as an empty path. Numeric flags go through
  // parseUnsignedInRange, so the diagnostic names the flag, the offending
  // token, and the first bad column.
  auto usage = [&](const std::string &Err) -> int {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    std::fprintf(stderr,
                 "usage: %s [--json <path>] [--threads N] [--method NAME] "
                 "[--deadline-ms N] "
                 "[--mem-mb N] [--no-memo] "
                 "[--trace-out <path>] [--heartbeat <path>] "
                 "[--heartbeat-ms N] [google-benchmark flags...]\n",
                 Argc ? Argv[0] : "bench");
    return 1;
  };
  auto usageError = [&](const char *Flag, const char *Value) -> int {
    return usage(std::string("invalid value '") + (Value ? Value : "") +
                 "' for " + Flag);
  };
  for (int I = 0; I != Argc; ++I) {
    const char *Value = nullptr;
    std::string Err;
    if (cli::flagValue(Argc, Argv, I, "--json", Value)) {
      if (!Value || !*Value)
        return usageError("--json", Value);
      JsonPath = Value;
      continue;
    }
    if (cli::flagValue(Argc, Argv, I, "--trace-out", Value)) {
      if (!Value || !*Value)
        return usageError("--trace-out", Value);
      TraceOutPath = Value;
      continue;
    }
    if (cli::flagValue(Argc, Argv, I, "--heartbeat-ms", Value)) {
      // A zero period would spin the sampler thread; an hour-plus one
      // means the heartbeat never fires before any sane deadline.
      if (!cli::parseUnsignedInRange("--heartbeat-ms", Value, uint64_t(1),
                                     uint64_t(3600000), HeartbeatMs, Err))
        return usage(Err);
      continue;
    }
    if (cli::flagValue(Argc, Argv, I, "--heartbeat", Value)) {
      if (!Value || !*Value)
        return usageError("--heartbeat", Value);
      HeartbeatPath = Value;
      continue;
    }
    if (cli::flagValue(Argc, Argv, I, "--threads", Value)) {
      // 0 = all hardware threads; anything past the pool's hard cap is
      // rejected up front instead of being clamped mid-run.
      if (!cli::parseUnsignedInRange("--threads", Value, 0u,
                                     exec::maxThreads(),
                                     detail::numThreadsSlot(), Err))
        return usage(Err);
      continue;
    }
    if (cli::flagValue(Argc, Argv, I, "--method", Value)) {
      // Same non-fatal diagnosis as the example binaries: a typo lists
      // the available methods instead of silently defaulting.
      std::optional<ValidationMethod> M;
      if (Value)
        M = parseValidationMethodMaybe(Value);
      if (!M)
        return usage(std::string("unknown validation method '") +
                     (Value ? Value : "") +
                     "' (available methods: " + validationMethodList() +
                     ")");
      detail::methodSlot() = *M;
      continue;
    }
    if (cli::flagValue(Argc, Argv, I, "--deadline-ms", Value)) {
      if (!cli::parseUnsignedInRange(
              "--deadline-ms", Value, uint64_t(1),
              std::numeric_limits<uint64_t>::max(), DeadlineMs, Err))
        return usage(Err);
      continue;
    }
    if (cli::flagValue(Argc, Argv, I, "--mem-mb", Value)) {
      if (!cli::parseUnsignedInRange("--mem-mb", Value, uint64_t(1),
                                     uint64_t(1) << 24, MemMb, Err))
        return usage(Err);
      continue;
    }
    if (std::string(Argv[I]) == "--no-memo") {
      NoMemo = true;
      continue;
    }
    Args.push_back(Argv[I]);
  }
  int NewArgc = static_cast<int>(Args.size());

  memo::MemoContext Memo;
  if (!NoMemo)
    detail::memoSlot() = &Memo;

  // SIGINT/SIGTERM turn into a graceful stop: the handler trips the
  // process-wide token, so a governed run drains into bounded `cancelled`
  // verdicts, and the harness still writes every report it was asked for
  // before exiting with the distinct graceful code.
  guard::installShutdownHandlers();

  guard::ResourceGuard Guard;
  Guard.setToken(&guard::shutdownToken());
  if (DeadlineMs || MemMb) {
    if (DeadlineMs)
      Guard.setDeadlineInMs(DeadlineMs);
    if (MemMb)
      Guard.setMemLimitBytes(MemMb << 20);
    detail::guardSlot() = &Guard;
  }

  const bool WantTelemetry = !JsonPath.empty() || !TraceOutPath.empty() ||
                             !HeartbeatPath.empty();
  obs::Telemetry Telem;
  obs::SpanRecorder Spans;
  obs::Heartbeat Beat;
  if (WantTelemetry) {
    if (!TraceOutPath.empty())
      Telem.Spans = &Spans;
    detail::telemetrySlot() = &Telem;
  }
  if (!HeartbeatPath.empty()) {
    // Probes read only lock-free state (atomics and stats snapshots); the
    // obs::Stats maps are off-limits while engines run.
    exec::ThreadPool &Pool = exec::ThreadPool::global();
    Beat.addProbe("pool.bodies_run", [&Pool] {
      return static_cast<double>(Pool.stats().BodiesRun);
    });
    Beat.addProbe("pool.steals", [&Pool] {
      return static_cast<double>(Pool.stats().Steals);
    });
    Beat.addProbe("pool.pending", [&Pool] {
      return static_cast<double>(Pool.stats().PendingBodies);
    });
    Beat.addProbe("pool.idle_wait_ns", [&Pool] {
      return static_cast<double>(Pool.stats().IdleWaitNs);
    });
    Beat.addProbe("guard.mem_peak_bytes", [&Guard] {
      return static_cast<double>(Guard.memPeakBytes());
    });
    Beat.addProbe("guard.checkpoint_polls", [&Guard] {
      return static_cast<double>(Guard.checkpointPolls());
    });
    Beat.addProbe("memo.hits", [&Memo] {
      return static_cast<double>(Memo.hits());
    });
    Beat.addProbe("memo.misses", [&Memo] {
      return static_cast<double>(Memo.misses());
    });
    Beat.addProbe("spans.recorded", [&Spans] {
      return static_cast<double>(Spans.totalSpans());
    });
    if (!Beat.start(HeartbeatPath, HeartbeatMs))
      std::fprintf(stderr, "warning: cannot write heartbeat to %s\n",
                   HeartbeatPath.c_str());
  }

  benchmark::Initialize(&NewArgc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(NewArgc, Args.data()))
    return 1;
  detail::RecordingReporter Reporter;
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  benchmark::Shutdown();
  Beat.stop();

  if (WantTelemetry) {
    // Fold the run-wide profiling state into gauges so it lands in the
    // report. Gauges are thread-count dependent (unlike the engines'
    // counters/size-histograms) and excluded from determinism checks.
    exec::ThreadPool::Stats PS = exec::ThreadPool::global().stats();
    Telem.Counters.maxGauge("pool.batches", static_cast<double>(PS.Batches));
    Telem.Counters.maxGauge("pool.bodies_run",
                            static_cast<double>(PS.BodiesRun));
    Telem.Counters.maxGauge("pool.steals", static_cast<double>(PS.Steals));
    Telem.Counters.maxGauge("pool.idle_wait_ns",
                            static_cast<double>(PS.IdleWaitNs));
    Telem.Counters.maxGauge("pool.threads_spawned",
                            static_cast<double>(PS.ThreadsSpawned));
    Telem.Counters.maxGauge("guard.mem_peak_bytes",
                            static_cast<double>(Guard.memPeakBytes()));
    Telem.Counters.maxGauge("guard.checkpoint_polls",
                            static_cast<double>(Guard.checkpointPolls()));
    if (!NoMemo) {
      memo::MemoContext::ShardStats PsSS =
          Memo.shardStats(memo::MemoContext::Table::PsBehaviors);
      Telem.Counters.maxGauge("memo.ps_behaviors.entries",
                              static_cast<double>(PsSS.Entries));
      Telem.Counters.maxGauge("memo.ps_behaviors.max_shard",
                              static_cast<double>(PsSS.MaxShard));
    }
  }

  const char *Reason = Guard.stopped() ? truncationCauseName(Guard.cause())
                       : guard::shutdownRequested() ? "shutdown-signal"
                                                    : "complete";
  if (!TraceOutPath.empty() &&
      !obs::writeChromeTrace(Telem, TraceOutPath, Argc ? Argv[0] : "bench",
                             Reason)) {
    std::fprintf(stderr, "error: cannot write %s\n", TraceOutPath.c_str());
    return 1;
  }
  if (!JsonPath.empty() &&
      !detail::writeJson(JsonPath, Reporter.Rows, Telem,
                         NoMemo ? nullptr : &Memo)) {
    std::fprintf(stderr, "error: cannot write %s\n", JsonPath.c_str());
    return 1;
  }
  detail::telemetrySlot() = nullptr;
  detail::guardSlot() = nullptr;
  detail::memoSlot() = nullptr;
  // Reports are on disk by now; the graceful code tells callers the run
  // was cut short by a signal, not that it completed or crashed.
  return guard::shutdownRequested() ? guard::GracefulSignalExit : 0;
}

} // namespace benchsupport
} // namespace pseq

#endif // PSEQ_BENCH_BENCHSUPPORT_H

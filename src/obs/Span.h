//===- obs/Span.h - Lock-free per-thread causal spans -----------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flight recorder: begin/end intervals with per-thread nesting depth,
/// plus instant events (a name, a timestamp and flat scalar args), recorded
/// into lock-free per-thread lanes and exported to Chrome trace-event JSON
/// afterwards (obs/TraceExport.h), so a run opens directly in
/// ui.perfetto.dev. This is the run's one event stream.
///
/// Concurrency contract: each lane is owned by exactly one thread (lanes
/// are claimed once per thread via an atomic counter and cached
/// thread-locally), and only the owning thread appends to it. The exporter
/// reads lanes only after the run's workers have joined (the pool join
/// provides the happens-before edge), so no per-span synchronization is
/// needed — recording a span is two clock reads plus a vector push_back.
/// The only cross-thread-visible state is a pair of relaxed totals
/// (recorded/dropped) safe for the heartbeat snapshotter to poll mid-run.
///
/// Span and instant *names*, and instant arg keys, must be string literals
/// (static storage): lanes store the pointer, never a copy, which keeps the
/// span record path allocation-free once a lane's vector has warmed up.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_OBS_SPAN_H
#define PSEQ_OBS_SPAN_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace pseq::obs {

/// One completed span, recorded at end time by the owning thread.
struct SpanRecord {
  const char *Name;  ///< string literal; static storage required
  uint64_t BeginNs;  ///< ns since the recorder's epoch
  uint64_t EndNs;    ///< ns since the recorder's epoch
  uint32_t Depth;    ///< nesting depth inside the lane at begin time
};

/// One scalar instant-event argument: a bool, an integer, a double or a
/// string.
class ArgValue {
public:
  ArgValue(bool B) : K(Kind::Bool), B(B) {}
  /// Any non-bool integral type (avoids long/long long overload ambiguity).
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T> &&
                                        !std::is_same_v<T, bool>>>
  ArgValue(T V) {
    if constexpr (std::is_signed_v<T>) {
      K = Kind::Int;
      I = static_cast<int64_t>(V);
    } else {
      K = Kind::UInt;
      U = static_cast<uint64_t>(V);
    }
  }
  ArgValue(double D) : K(Kind::Real), D(D) {}
  ArgValue(const char *S) : K(Kind::Str), S(S) {}
  ArgValue(std::string S) : K(Kind::Str), S(std::move(S)) {}
  ArgValue(std::string_view S) : K(Kind::Str), S(S) {}

  /// Appends the JSON literal for this value to \p Out.
  void appendJson(std::string &Out) const;

private:
  enum class Kind { Bool, Int, UInt, Real, Str };
  Kind K;
  bool B = false;
  int64_t I = 0;
  uint64_t U = 0;
  double D = 0;
  std::string S;
};

/// A named instant-event argument (the key is a string literal).
struct InstantArg {
  const char *Key;
  ArgValue Val;
};

/// One instant event, recorded by the owning thread.
struct InstantRecord {
  const char *Name; ///< string literal; static storage required
  uint64_t Ns;      ///< ns since the recorder's epoch
  std::vector<InstantArg> Args;
};

/// Per-thread span lanes plus the shared epoch. Null-recorder use is the
/// off switch: ScopedSpan with a null recorder is a single branch.
class SpanRecorder {
public:
  static constexpr unsigned MaxLanes = 288;     ///< pool max (256) + margin
  /// Cap on a lane's span records, and separately on its instant records
  /// (so spans filling a lane cannot crowd out its events); past it a
  /// record is counted as dropped.
  static constexpr size_t MaxSpansPerLane = size_t(1) << 16;

  SpanRecorder();
  SpanRecorder(const SpanRecorder &) = delete;
  SpanRecorder &operator=(const SpanRecorder &) = delete;

  /// Nanoseconds since this recorder was constructed.
  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Epoch)
            .count());
  }

  /// The calling thread's lane index (claimed on first use, cached
  /// thread-locally per recorder). \returns MaxLanes when all lanes are
  /// taken — spans from such threads are counted as dropped.
  unsigned laneForThisThread();

  /// Bumps and returns the lane's nesting depth (depth *before* the bump
  /// is the new span's depth). Owning thread only.
  uint32_t enter(unsigned Lane);

  /// Ends the innermost open span of \p Lane and appends its record.
  /// Owning thread only.
  void exit(unsigned Lane, const char *Name, uint64_t BeginNs,
            uint32_t Depth);

  /// Records the instant event \p Name with \p Args in the calling
  /// thread's lane.
  void instant(const char *Name, std::vector<InstantArg> Args);

  /// Lanes claimed so far (clamped to MaxLanes).
  unsigned lanes() const;
  /// Span records of lane \p L. Only call after the recording threads
  /// joined.
  const std::vector<SpanRecord> &lane(unsigned L) const {
    return Lanes[L].Records;
  }
  /// Instant records of lane \p L, in recording order. Same contract.
  const std::vector<InstantRecord> &instants(unsigned L) const {
    return Lanes[L].Instants;
  }

  // Live totals of span and instant records, for the heartbeat
  // snapshotter (relaxed atomics).
  uint64_t totalSpans() const {
    return Recorded.load(std::memory_order_relaxed);
  }
  uint64_t droppedSpans() const {
    return Dropped.load(std::memory_order_relaxed);
  }

private:
  struct alignas(64) Lane {
    std::vector<SpanRecord> Records;
    std::vector<InstantRecord> Instants;
    uint32_t Depth = 0;
  };

  std::chrono::steady_clock::time_point Epoch;
  uint64_t Id; ///< process-unique, keys the thread-local lane cache
  std::vector<Lane> Lanes;
  std::atomic<unsigned> NextLane{0};
  std::atomic<uint64_t> Recorded{0};
  std::atomic<uint64_t> Dropped{0};
};

/// RAII span: begin at construction, end + record at destruction. A null
/// recorder makes both ends a single branch.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder *R, const char *Name) : Rec(R), Name(Name) {
    if (!Rec)
      return;
    Lane = Rec->laneForThisThread();
    if (Lane >= SpanRecorder::MaxLanes) {
      Rec = nullptr; // out of lanes: already counted dropped
      return;
    }
    Depth = Rec->enter(Lane);
    BeginNs = Rec->nowNs();
  }
  ~ScopedSpan() {
    if (Rec)
      Rec->exit(Lane, Name, BeginNs, Depth);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder *Rec;
  const char *Name;
  unsigned Lane = 0;
  uint32_t Depth = 0;
  uint64_t BeginNs = 0;
};

/// Wall milliseconds since \p Start. Result fields (ElapsedMs, OptMs) and
/// instant-event "ms" args are measured with this, whether or not spans
/// are recorded; spans carry the per-layer breakdown.
inline double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

} // namespace pseq::obs

#endif // PSEQ_OBS_SPAN_H

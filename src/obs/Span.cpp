//===- obs/Span.cpp - Lock-free per-thread causal spans -------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "obs/Span.h"

#include "obs/JsonValue.h"

using namespace pseq::obs;

namespace {

/// Thread-local lane cache. Keyed by the recorder's process-unique id (not
/// its address) so a recorder allocated where a destroyed one lived cannot
/// inherit a stale lane.
struct LaneCache {
  uint64_t RecorderId = 0;
  unsigned Lane = 0;
};

thread_local LaneCache Cache;

std::atomic<uint64_t> NextRecorderId{1};

} // namespace

SpanRecorder::SpanRecorder()
    : Epoch(std::chrono::steady_clock::now()),
      Id(NextRecorderId.fetch_add(1, std::memory_order_relaxed)),
      Lanes(MaxLanes) {}

unsigned SpanRecorder::laneForThisThread() {
  if (Cache.RecorderId == Id) {
    if (Cache.Lane >= MaxLanes)
      Dropped.fetch_add(1, std::memory_order_relaxed);
    return Cache.Lane;
  }
  unsigned L = NextLane.fetch_add(1, std::memory_order_relaxed);
  if (L >= MaxLanes) {
    L = MaxLanes;
    Dropped.fetch_add(1, std::memory_order_relaxed);
  }
  Cache.RecorderId = Id;
  Cache.Lane = L;
  return L;
}

uint32_t SpanRecorder::enter(unsigned Lane) { return Lanes[Lane].Depth++; }

void ArgValue::appendJson(std::string &Out) const {
  switch (K) {
  case Kind::Bool:
    Out += B ? "true" : "false";
    break;
  case Kind::Int:
    Out += std::to_string(I);
    break;
  case Kind::UInt:
    Out += std::to_string(U);
    break;
  case Kind::Real:
    Out += jsonNumber(D);
    break;
  case Kind::Str:
    Out += '"';
    Out += jsonEscape(S);
    Out += '"';
    break;
  }
}

void SpanRecorder::exit(unsigned LaneIdx, const char *Name, uint64_t BeginNs,
                        uint32_t Depth) {
  Lane &L = Lanes[LaneIdx];
  --L.Depth;
  if (L.Records.size() >= MaxSpansPerLane) {
    Dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (L.Records.empty())
    L.Records.reserve(256);
  L.Records.push_back({Name, BeginNs, nowNs(), Depth});
  Recorded.fetch_add(1, std::memory_order_relaxed);
}

void SpanRecorder::instant(const char *Name, std::vector<InstantArg> Args) {
  unsigned LaneIdx = laneForThisThread();
  if (LaneIdx >= MaxLanes)
    return; // out of lanes: already counted dropped
  Lane &L = Lanes[LaneIdx];
  if (L.Instants.size() >= MaxSpansPerLane) {
    Dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  L.Instants.push_back({Name, nowNs(), std::move(Args)});
  Recorded.fetch_add(1, std::memory_order_relaxed);
}

unsigned SpanRecorder::lanes() const {
  unsigned N = NextLane.load(std::memory_order_relaxed);
  return N > MaxLanes ? MaxLanes : N;
}

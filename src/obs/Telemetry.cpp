//===- obs/Telemetry.cpp - The per-run telemetry bundle -------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "obs/Telemetry.h"

using namespace pseq::obs;

void Telemetry::finalSnapshot(std::string_view Reason) {
  if (!Sink)
    return;
  if (Sink->enabled()) {
    std::vector<TraceField> Fields;
    Fields.reserve(1 + Counters.counters().size() +
                   Counters.gauges().size());
    Fields.push_back({"reason", TraceValue(Reason)});
    for (const auto &[Name, Value] : Counters.counters())
      Fields.push_back({Name, TraceValue(Value)});
    for (const auto &[Name, Value] : Counters.gauges())
      Fields.push_back({Name, TraceValue(Value)});
    if (Spans) {
      Fields.push_back({"spans.recorded", TraceValue(Spans->totalSpans())});
      Fields.push_back({"spans.dropped", TraceValue(Spans->droppedSpans())});
    }
    Sink->event("run.final", Fields);
  }
  Sink->flush();
}

WorkerTelemetry::WorkerTelemetry(Telemetry *Caller, unsigned Workers)
    : Caller(Caller) {
  if (!Caller || Workers <= 1)
    return;
  for (unsigned W = 0; W != Workers; ++W) {
    Private.push_back(std::make_unique<Telemetry>());
    // Span lanes are per-thread inside the recorder, so sharing it is free.
    Private.back()->Spans = Caller->Spans;
  }
}

void WorkerTelemetry::merge() {
  for (const std::unique_ptr<Telemetry> &WT : Private)
    Caller->mergeCounters(WT->Counters);
}

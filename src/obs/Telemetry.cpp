//===- obs/Telemetry.cpp - The per-run telemetry bundle -------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "obs/Telemetry.h"

using namespace pseq::obs;

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

//===- obs/Heartbeat.cpp - Periodic progress snapshotter ------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "obs/Heartbeat.h"

#include "obs/JsonValue.h"
#include "obs/Span.h"

using namespace pseq::obs;

void Heartbeat::addProbe(std::string Name, std::function<double()> Fn) {
  Probes.emplace_back(std::move(Name), std::move(Fn));
}

bool Heartbeat::start(const std::string &Path, uint64_t Interval) {
  if (running())
    return false;
  Out.open(Path);
  if (!Out.is_open())
    return false;
  Seq = 0;
  Started = std::chrono::steady_clock::now();
  StopRequested = false;
  IntervalMs = Interval == 0 ? 1 : Interval;
  Worker = std::thread([this] {
    std::unique_lock<std::mutex> L(Mu);
    while (!StopRequested) {
      // Wait first: stop() before the first interval still gets its final
      // tick, and a short run never pays for an immediate sample.
      Cv.wait_for(L, std::chrono::milliseconds(IntervalMs),
                  [&] { return StopRequested; });
      if (StopRequested)
        return;
      L.unlock();
      tick();
      L.lock();
    }
  });
  return true;
}

void Heartbeat::tick() {
  std::string Line = "{\"seq\":" + std::to_string(Seq++) +
                     ",\"ms\":" + jsonNumber(msSince(Started)) +
                     ",\"ev\":\"heartbeat\"";
  for (const auto &[Name, Fn] : Probes)
    Line += ",\"" + jsonEscape(Name) + "\":" + jsonNumber(Fn());
  Line += "}\n";
  // Flushed per tick, so the file can be watched while the run goes on.
  Out << Line << std::flush;
  Beats.fetch_add(1, std::memory_order_relaxed);
}

void Heartbeat::stop() {
  if (!running())
    return;
  {
    std::lock_guard<std::mutex> L(Mu);
    StopRequested = true;
  }
  Cv.notify_all();
  Worker.join();
  // Final tick from the caller's thread — the sampler is gone, so the
  // file is single-writer again.
  tick();
  Out.close();
}

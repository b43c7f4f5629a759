//===- obs/Report.cpp - Telemetry rendering -------------------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "obs/Report.h"

#include "obs/JsonValue.h"
#include "support/AtomicFile.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string_view>

using namespace pseq::obs;

namespace {

std::string fixed(double V, int Prec = 2) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Prec, V);
  return Buf;
}

std::vector<SpanTotal> spanTotalsOf(const Telemetry &T) {
  return T.Spans ? spanTotals(*T.Spans) : std::vector<SpanTotal>();
}

} // namespace

std::vector<SpanTotal> pseq::obs::spanTotals(const SpanRecorder &R) {
  struct Ns {
    uint64_t Count = 0, Total = 0, Self = 0;
  };
  std::map<std::string_view, Ns> ByName;
  for (unsigned L = 0; L != R.lanes(); ++L) {
    // A lane holds its spans in end order, so every span's children close
    // before it does: Closed[D] sums the spans at depth D that closed since
    // the last span at depth D-1 did, which are exactly that span's
    // children.
    std::vector<uint64_t> Closed;
    for (const SpanRecord &S : R.lane(L)) {
      uint64_t Dur = S.EndNs - S.BeginNs;
      if (Closed.size() < S.Depth + 2)
        Closed.resize(S.Depth + 2, 0);
      uint64_t Children = std::min(Closed[S.Depth + 1], Dur);
      Closed[S.Depth + 1] = 0;
      Closed[S.Depth] += Dur;
      Ns &N = ByName[S.Name];
      ++N.Count;
      N.Total += Dur;
      N.Self += Dur - Children;
    }
  }
  std::vector<SpanTotal> Out;
  for (const auto &[Name, N] : ByName)
    Out.push_back({std::string(Name), N.Count, N.Total / 1e6, N.Self / 1e6});
  return Out;
}

std::string pseq::obs::renderReportTable(const Telemetry &T) {
  std::string Out;
  Out += "== telemetry "
         "==========================================================\n";
  if (!T.Counters.counters().empty()) {
    Out += "counters\n";
    for (const auto &[Name, Value] : T.Counters.counters()) {
      char Line[128];
      std::snprintf(Line, sizeof(Line), "  %-44s %14llu\n", Name.c_str(),
                    static_cast<unsigned long long>(Value));
      Out += Line;
    }
  }
  if (!T.Counters.gauges().empty()) {
    Out += "gauges\n";
    for (const auto &[Name, Value] : T.Counters.gauges()) {
      char Line[128];
      std::snprintf(Line, sizeof(Line), "  %-44s %14s\n", Name.c_str(),
                    fixed(Value).c_str());
      Out += Line;
    }
  }
  if (!T.Counters.histograms().empty()) {
    Out += "histograms\n";
    char Line[200];
    std::snprintf(Line, sizeof(Line), "  %-28s %10s %10s %10s %10s %10s\n",
                  "", "count", "p50", "p90", "p99", "max");
    Out += Line;
    for (const auto &[Name, H] : T.Counters.histograms()) {
      std::snprintf(Line, sizeof(Line),
                    "  %-28s %10llu %10s %10s %10s %10llu\n", Name.c_str(),
                    static_cast<unsigned long long>(H.count()),
                    fixed(H.percentile(50), 1).c_str(),
                    fixed(H.percentile(90), 1).c_str(),
                    fixed(H.percentile(99), 1).c_str(),
                    static_cast<unsigned long long>(H.max()));
      Out += Line;
    }
  }
  std::vector<SpanTotal> Spans = spanTotalsOf(T);
  if (!Spans.empty()) {
    Out += "spans\n";
    char Line[200];
    std::snprintf(Line, sizeof(Line), "  %-28s %10s %13s %13s\n", "",
                  "count", "ms", "self ms");
    Out += Line;
    for (const SpanTotal &S : Spans) {
      std::snprintf(Line, sizeof(Line), "  %-28s %10llu %13s %13s\n",
                    S.Name.c_str(), static_cast<unsigned long long>(S.Count),
                    fixed(S.Ms).c_str(), fixed(S.SelfMs).c_str());
      Out += Line;
    }
  }
  if (T.Counters.empty() && Spans.empty())
    Out += "(no telemetry recorded)\n";
  Out += "================================================================="
         "=====\n";
  return Out;
}

std::string pseq::obs::renderHistogramJson(const Histogram &H) {
  std::string Out = "{\"count\":" + std::to_string(H.count());
  Out += ",\"sum\":" + std::to_string(H.sum());
  Out += ",\"min\":" + std::to_string(H.min());
  Out += ",\"max\":" + std::to_string(H.max());
  Out += ",\"p50\":" + jsonNumber(H.percentile(50));
  Out += ",\"p90\":" + jsonNumber(H.percentile(90));
  Out += ",\"p99\":" + jsonNumber(H.percentile(99));
  Out += ",\"buckets\":[";
  bool First = true;
  for (unsigned B = 0; B != Histogram::NumBuckets; ++B) {
    if (H.bucket(B) == 0)
      continue;
    if (!First)
      Out += ',';
    First = false;
    Out += '[' + std::to_string(B) + ',' + std::to_string(H.bucket(B)) + ']';
  }
  Out += "]}";
  return Out;
}

std::string pseq::obs::renderReportJson(const Telemetry &T) {
  std::string Out = "{\"counters\":{";
  bool First = true;
  for (const auto &[Name, Value] : T.Counters.counters()) {
    if (!First)
      Out += ',';
    First = false;
    Out += '"';
    Out += jsonEscape(Name);
    Out += "\":";
    Out += std::to_string(Value);
  }
  Out += "},\"gauges\":{";
  First = true;
  for (const auto &[Name, Value] : T.Counters.gauges()) {
    if (!First)
      Out += ',';
    First = false;
    Out += '"';
    Out += jsonEscape(Name);
    Out += "\":";
    Out += jsonNumber(Value);
  }
  Out += "},\"histograms\":{";
  First = true;
  for (const auto &[Name, H] : T.Counters.histograms()) {
    if (!First)
      Out += ',';
    First = false;
    Out += '"';
    Out += jsonEscape(Name);
    Out += "\":";
    Out += renderHistogramJson(H);
  }
  Out += "},\"spans\":[";
  First = true;
  for (const SpanTotal &S : spanTotalsOf(T)) {
    if (!First)
      Out += ',';
    First = false;
    Out += "{\"name\":\"";
    Out += jsonEscape(S.Name);
    Out += "\",\"count\":";
    Out += std::to_string(S.Count);
    Out += ",\"ms\":";
    Out += jsonNumber(S.Ms);
    Out += ",\"self_ms\":";
    Out += jsonNumber(S.SelfMs);
    Out += '}';
  }
  Out += "]}";
  return Out;
}

bool pseq::obs::writeReportJson(const Telemetry &T, const std::string &Path) {
  // Atomic (temp + rename): a process killed mid-write leaves the previous
  // complete report or none, never a truncated one that --diff half-parses.
  return support::writeFileAtomic(Path, renderReportJson(T) + "\n");
}

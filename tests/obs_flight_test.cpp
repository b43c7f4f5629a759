//===- tests/obs_flight_test.cpp - Flight-recorder layer tests ------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Unit tests for the flight-recorder half of src/obs: log2 histograms
// (bucketing, merge commutativity, percentiles), span lanes and the Chrome
// trace-event exporter (parsed back with obs::JsonValue and schema-checked:
// balanced B/E pairs, well-formed nesting per tid, instant events with
// their args), the closing run.final instant, the JSON reader itself, and
// the heartbeat snapshotter.
//
//===----------------------------------------------------------------------===//

#include "obs/Heartbeat.h"
#include "obs/Histogram.h"
#include "obs/JsonValue.h"
#include "obs/Span.h"
#include "obs/Telemetry.h"
#include "obs/TraceExport.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace pseq;
using namespace pseq::obs;

namespace {

std::string tempPath(const char *Stem) {
  const char *Dir = std::getenv("TMPDIR");
  std::string Path = Dir && *Dir ? Dir : "/tmp";
  Path += "/pseq_obs_flight_";
  Path += Stem;
  Path += "_";
  Path += std::to_string(static_cast<unsigned long>(::getpid()));
  return Path;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(HistogramTest, BucketLayout) {
  EXPECT_EQ(Histogram::bucketFor(0), 0u);
  EXPECT_EQ(Histogram::bucketFor(1), 1u);
  EXPECT_EQ(Histogram::bucketFor(2), 2u);
  EXPECT_EQ(Histogram::bucketFor(3), 2u);
  EXPECT_EQ(Histogram::bucketFor(4), 3u);
  EXPECT_EQ(Histogram::bucketFor(1023), 10u);
  EXPECT_EQ(Histogram::bucketFor(1024), 11u);
  EXPECT_EQ(Histogram::bucketFor(UINT64_MAX), 64u);
  // Bucket bounds partition: lo(b) == hi(b-1) + 1 for every b >= 1.
  for (unsigned B = 1; B < Histogram::NumBuckets; ++B)
    EXPECT_EQ(Histogram::bucketLo(B), Histogram::bucketHi(B - 1) + 1)
        << "bucket " << B;
  // Every value lands inside its own bucket's bounds.
  for (uint64_t V : {0ull, 1ull, 7ull, 255ull, 256ull, 1000000ull}) {
    unsigned B = Histogram::bucketFor(V);
    EXPECT_GE(V, Histogram::bucketLo(B));
    EXPECT_LE(V, Histogram::bucketHi(B));
  }
}

TEST(HistogramTest, RecordAndStats) {
  Histogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 0u);
  EXPECT_EQ(H.percentile(50), 0.0);

  for (uint64_t V : {4ull, 8ull, 15ull, 16ull, 23ull, 42ull})
    H.record(V);
  EXPECT_EQ(H.count(), 6u);
  EXPECT_EQ(H.sum(), 108u);
  EXPECT_EQ(H.min(), 4u);
  EXPECT_EQ(H.max(), 42u);
  EXPECT_GT(H.percentile(99), H.percentile(1));
  EXPECT_LE(H.percentile(100), 64.0); // inside the top sample's bucket
}

TEST(HistogramTest, MergeIsCommutativeAndBitIdentical) {
  Histogram A, B, AB, BA;
  for (uint64_t V = 0; V < 200; V += 3)
    A.record(V * V);
  for (uint64_t V = 1; V < 100; V += 2)
    B.record(V);
  AB = A;
  AB.merge(B);
  BA = B;
  BA.merge(A);
  EXPECT_TRUE(AB == BA);
  EXPECT_EQ(AB.count(), A.count() + B.count());
  EXPECT_EQ(AB.sum(), A.sum() + B.sum());
  EXPECT_EQ(AB.min(), std::min(A.min(), B.min()));
  EXPECT_EQ(AB.max(), std::max(A.max(), B.max()));
  // Percentiles are pure functions of the (equal) buckets.
  EXPECT_EQ(AB.percentile(50), BA.percentile(50));
  EXPECT_EQ(AB.percentile(99), BA.percentile(99));
}

TEST(HistogramTest, PercentileRankWalk) {
  // 100 samples of 1 and 100 samples of 1000: the median sits in the
  // low bucket, p99 in the high one.
  Histogram H;
  for (int I = 0; I < 100; ++I)
    H.record(1);
  for (int I = 0; I < 100; ++I)
    H.record(1000);
  EXPECT_LE(H.percentile(25), 1.0);
  EXPECT_GE(H.percentile(99), 512.0);
  EXPECT_LE(H.percentile(99), 1024.0);
}

TEST(HistogramTest, TimingKeyConvention) {
  EXPECT_TRUE(isTimingHistKey("psna.step.us"));
  EXPECT_TRUE(isTimingHistKey("memo.probe.us"));
  EXPECT_TRUE(isTimingHistKey("pool.idle.ns"));
  EXPECT_TRUE(isTimingHistKey("fuzz.pair.ms"));
  EXPECT_FALSE(isTimingHistKey("psna.explore.frontier"));
  EXPECT_FALSE(isTimingHistKey("seq.enum.behavior_set"));
  EXPECT_FALSE(isTimingHistKey("opt.pass.rewrites"));
  EXPECT_FALSE(isTimingHistKey("us")); // suffix needs the dot
}

TEST(HistogramTest, StatsHistogramRegistry) {
  Stats S;
  EXPECT_EQ(S.findHist("x"), nullptr);
  S.recordHist("x", 10);
  S.recordHist("x", 20);
  ASSERT_NE(S.findHist("x"), nullptr);
  EXPECT_EQ(S.findHist("x")->count(), 2u);

  Stats T;
  T.recordHist("x", 30);
  T.recordHist("y", 1);
  S.merge(T);
  EXPECT_EQ(S.findHist("x")->count(), 3u);
  ASSERT_NE(S.findHist("y"), nullptr);
  EXPECT_EQ(S.findHist("y")->count(), 1u);
}

//===----------------------------------------------------------------------===//
// JsonValue
//===----------------------------------------------------------------------===//

TEST(JsonValueTest, ParsesScalarsAndContainers) {
  JsonValue V;
  ASSERT_TRUE(JsonValue::parse("null", V));
  EXPECT_TRUE(V.isNull());
  ASSERT_TRUE(JsonValue::parse("true", V));
  EXPECT_TRUE(V.asBool());
  ASSERT_TRUE(JsonValue::parse("-12.5e2", V));
  EXPECT_EQ(V.asNumber(), -1250.0);
  ASSERT_TRUE(JsonValue::parse("\"a\\n\\u0041\"", V));
  EXPECT_EQ(V.asString(), "a\nA");
  ASSERT_TRUE(JsonValue::parse("[1, [2, 3], {}]", V));
  ASSERT_EQ(V.array().size(), 3u);
  EXPECT_EQ(V.array()[1].array()[1].asNumber(), 3.0);
  ASSERT_TRUE(JsonValue::parse("{\"b\": 1, \"a\": {\"c\": true}}", V));
  ASSERT_NE(V.field("a"), nullptr);
  EXPECT_TRUE(V.field("a")->field("c")->asBool());
  EXPECT_EQ(V.field("missing"), nullptr);
}

TEST(JsonValueTest, RejectsMalformedInput) {
  JsonValue V;
  std::string Err;
  EXPECT_FALSE(JsonValue::parse("", V, &Err));
  EXPECT_FALSE(JsonValue::parse("{", V, &Err));
  EXPECT_FALSE(JsonValue::parse("[1,]", V, &Err));
  EXPECT_FALSE(JsonValue::parse("{'a': 1}", V, &Err));
  EXPECT_FALSE(JsonValue::parse("1 2", V, &Err)); // trailing junk
  EXPECT_FALSE(JsonValue::parse("nul", V, &Err));
  EXPECT_FALSE(Err.empty());
}

//===----------------------------------------------------------------------===//
// Spans and the Chrome trace exporter
//===----------------------------------------------------------------------===//

TEST(SpanTest, NullRecorderIsANoop) {
  ScopedSpan Outer(nullptr, "outer");
  ScopedSpan Inner(nullptr, "inner");
  SUCCEED();
}

TEST(SpanTest, RecordsNestedSpans) {
  SpanRecorder R;
  {
    ScopedSpan Outer(&R, "outer");
    { ScopedSpan Inner(&R, "inner"); }
    { ScopedSpan Inner2(&R, "inner"); }
  }
  EXPECT_EQ(R.totalSpans(), 3u);
  EXPECT_EQ(R.droppedSpans(), 0u);
  ASSERT_EQ(R.lanes(), 1u);
  const std::vector<SpanRecord> &L = R.lane(0);
  ASSERT_EQ(L.size(), 3u);
  // Lanes record at end time: inner spans first, outer last.
  EXPECT_STREQ(L[0].Name, "inner");
  EXPECT_EQ(L[0].Depth, 1u);
  EXPECT_STREQ(L[2].Name, "outer");
  EXPECT_EQ(L[2].Depth, 0u);
  EXPECT_LE(L[2].BeginNs, L[0].BeginNs);
  EXPECT_GE(L[2].EndNs, L[1].EndNs);
}

TEST(SpanTest, LanesArePerThread) {
  SpanRecorder R;
  constexpr unsigned NumThreads = 4;
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < NumThreads; ++T)
    Ts.emplace_back([&R] {
      for (int I = 0; I < 10; ++I)
        ScopedSpan S(&R, "work");
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(R.totalSpans(), NumThreads * 10u);
  EXPECT_EQ(R.lanes(), NumThreads);
  for (unsigned L = 0; L < R.lanes(); ++L)
    EXPECT_EQ(R.lane(L).size(), 10u);
}

/// Parses a rendered Chrome trace and schema-checks it: required members,
/// balanced B/E pairs per tid, LIFO (well-nested) begin/end order, instant
/// events with an args object, and exactly one run.final, the last event.
/// The instant events, run.final included, go to \p Instants in file
/// order.
void checkChromeTraceSchema(const std::string &Json, unsigned ExpectSpans,
                            std::vector<JsonValue> *Instants = nullptr) {
  JsonValue V;
  std::string Err;
  ASSERT_TRUE(JsonValue::parse(Json, V, &Err)) << Err;
  const JsonValue *Events = V.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());

  std::map<int, std::vector<std::string>> OpenByTid;
  unsigned Durations = 0;
  std::vector<std::string> InstantNames;
  for (const JsonValue &E : Events->array()) {
    ASSERT_TRUE(E.isObject());
    const JsonValue *Ph = E.field("ph");
    ASSERT_NE(Ph, nullptr);
    const std::string &Kind = Ph->asString();
    if (Kind == "M")
      continue; // process/thread metadata
    ASSERT_TRUE(Kind == "B" || Kind == "E" || Kind == "i") << Kind;
    ASSERT_NE(E.field("ts"), nullptr);
    ASSERT_TRUE(E.field("ts")->isNumber());
    ASSERT_NE(E.field("pid"), nullptr);
    ASSERT_NE(E.field("tid"), nullptr);
    ASSERT_NE(E.field("name"), nullptr);
    int Tid = static_cast<int>(E.field("tid")->asNumber());
    if (Kind == "i") {
      ASSERT_NE(E.field("args"), nullptr);
      ASSERT_TRUE(E.field("args")->isObject());
      InstantNames.push_back(E.field("name")->asString());
      if (Instants)
        Instants->push_back(E);
    } else if (Kind == "B") {
      OpenByTid[Tid].push_back(E.field("name")->asString());
    } else {
      ASSERT_FALSE(OpenByTid[Tid].empty()) << "E without B on tid " << Tid;
      OpenByTid[Tid].pop_back();
      ++Durations;
    }
  }
  for (const auto &[Tid, Open] : OpenByTid)
    EXPECT_TRUE(Open.empty()) << "unbalanced spans on tid " << Tid;
  EXPECT_EQ(Durations, ExpectSpans);
  EXPECT_EQ(std::count(InstantNames.begin(), InstantNames.end(), "run.final"),
            1);
  ASSERT_FALSE(InstantNames.empty());
  EXPECT_EQ(InstantNames.back(), "run.final");
}

TEST(TraceExportTest, ExportsBalancedWellNestedEvents) {
  Telemetry T;
  SpanRecorder R;
  T.Spans = &R;
  {
    ScopedSpan A(&R, "level");
    { ScopedSpan B(&R, "expand"); }
    {
      ScopedSpan C(&R, "expand");
      ScopedSpan D(&R, "step");
    }
  }
  std::thread Worker([&R] {
    ScopedSpan W(&R, "task");
    ScopedSpan I(&R, "probe");
  });
  Worker.join();
  std::string Json = renderChromeTrace(T, "obs_flight_test", "complete");
  checkChromeTraceSchema(Json, 6);
  // Timestamps within a tid's B events must be non-decreasing.
  JsonValue V;
  ASSERT_TRUE(JsonValue::parse(Json, V));
  std::map<int, double> LastTs;
  for (const JsonValue &E : V.field("traceEvents")->array()) {
    if (E.field("ph")->asString() != "B")
      continue;
    int Tid = static_cast<int>(E.field("tid")->asNumber());
    double Ts = E.field("ts")->asNumber();
    auto It = LastTs.find(Tid);
    if (It != LastTs.end()) {
      EXPECT_GE(Ts, It->second);
    }
    LastTs[Tid] = Ts;
  }
}

TEST(TraceExportTest, WritesLoadableFile) {
  Telemetry T;
  SpanRecorder R;
  T.Spans = &R;
  { ScopedSpan A(&R, "run"); }
  std::string Path = tempPath("trace");
  ASSERT_TRUE(writeChromeTrace(T, Path, "obs_flight_test", "complete"));
  checkChromeTraceSchema(slurp(Path), 1);
  std::remove(Path.c_str());
  EXPECT_FALSE(
      writeChromeTrace(T, "/nonexistent-dir/x/trace.json", "t", "complete"));
}

TEST(TraceExportTest, InstantsKeepSpansBalanced) {
  Telemetry T;
  SpanRecorder R;
  T.Spans = &R;
  R.instant("before", {{"k", 1}});
  {
    ScopedSpan A(&R, "outer");
    R.instant("inside", {{"s", "x"}, {"b", false}});
    { ScopedSpan B(&R, "inner"); }
  }
  std::thread Worker([&R] {
    ScopedSpan W(&R, "task");
    R.instant("worker", {{"d", 0.5}});
  });
  Worker.join();
  std::vector<JsonValue> Instants;
  checkChromeTraceSchema(renderChromeTrace(T, "t", "complete"), 3, &Instants);
  ASSERT_EQ(Instants.size(), 4u);
  std::vector<std::string> Names;
  for (const JsonValue &I : Instants)
    Names.push_back(I.field("name")->asString());
  EXPECT_EQ(Names, (std::vector<std::string>{"before", "inside", "worker",
                                             "run.final"}));
  EXPECT_EQ(Instants[1].field("args")->field("s")->asString(), "x");
  EXPECT_FALSE(Instants[1].field("args")->field("b")->asBool());
  EXPECT_EQ(Instants[2].field("tid")->asNumber(), 1.0);
  EXPECT_EQ(Instants[2].field("args")->field("d")->asNumber(), 0.5);
}

TEST(TraceExportTest, RunFinalCarriesCountersGaugesAndSpanTotals) {
  Telemetry T;
  SpanRecorder R;
  T.Spans = &R;
  { ScopedSpan S(&R, "x"); }
  T.Counters.add("demo.counter", 7);
  T.Counters.setGauge("demo.gauge", 1.5);
  std::vector<JsonValue> Instants;
  checkChromeTraceSchema(renderChromeTrace(T, "t", "deadline"), 1, &Instants);
  ASSERT_FALSE(Instants.empty());
  const JsonValue *Args = Instants.back().field("args");
  EXPECT_EQ(Args->field("reason")->asString(), "deadline");
  EXPECT_EQ(Args->field("demo.counter")->asNumber(), 7.0);
  EXPECT_EQ(Args->field("demo.gauge")->asNumber(), 1.5);
  EXPECT_EQ(Args->field("spans.recorded")->asNumber(), 1.0);
  EXPECT_EQ(Args->field("spans.dropped")->asNumber(), 0.0);
}

TEST(TraceExportTest, RunFinalWithoutRecorder) {
  Telemetry T;
  T.Counters.add("demo.counter", 2);
  std::vector<JsonValue> Instants;
  checkChromeTraceSchema(renderChromeTrace(T, "t", "complete"), 0, &Instants);
  ASSERT_EQ(Instants.size(), 1u);
  const JsonValue *Args = Instants[0].field("args");
  EXPECT_EQ(Args->field("demo.counter")->asNumber(), 2.0);
  EXPECT_EQ(Args->field("spans.recorded"), nullptr);
}

TEST(TraceExportTest, RunFinalSurvivesAFullLane) {
  Telemetry T;
  SpanRecorder R;
  T.Spans = &R;
  T.Counters.add("demo.counter", 3);
  constexpr size_t Cap = SpanRecorder::MaxSpansPerLane;
  for (size_t I = 0; I != Cap; ++I) {
    ScopedSpan S(&R, "fill");
    R.instant("fill", {});
  }
  { ScopedSpan S(&R, "lost"); }
  R.instant("lost", {{"k", 1}});
  EXPECT_EQ(R.droppedSpans(), 2u);
  std::vector<JsonValue> Instants;
  checkChromeTraceSchema(renderChromeTrace(T, "t", "complete"),
                         static_cast<unsigned>(Cap), &Instants);
  ASSERT_EQ(Instants.size(), Cap + 1);
  const JsonValue *Args = Instants.back().field("args");
  EXPECT_EQ(Args->field("demo.counter")->asNumber(), 3.0);
  EXPECT_EQ(Args->field("spans.recorded")->asNumber(), 2.0 * Cap);
  EXPECT_EQ(Args->field("spans.dropped")->asNumber(), 2.0);
}

//===----------------------------------------------------------------------===//
// Heartbeat
//===----------------------------------------------------------------------===//

TEST(HeartbeatTest, EmitsFinalTickWithProbeValues) {
  Heartbeat Beat;
  Beat.addProbe("answer", [] { return 42.0; });
  Beat.addProbe("zero", [] { return 0.0; });
  std::string Path = tempPath("heartbeat");
  ASSERT_TRUE(Beat.start(Path, 10'000)); // interval >> test: final tick only
  Beat.stop();
  Beat.stop(); // idempotent
  EXPECT_GE(Beat.beats(), 1u);

  std::istringstream In(slurp(Path));
  std::string Line;
  unsigned Lines = 0;
  while (std::getline(In, Line)) {
    ++Lines;
    JsonValue V;
    std::string Err;
    ASSERT_TRUE(JsonValue::parse(Line, V, &Err)) << Err;
    EXPECT_EQ(V.field("ev")->asString(), "heartbeat");
    EXPECT_EQ(V.field("answer")->asNumber(), 42.0);
    EXPECT_EQ(V.field("zero")->asNumber(), 0.0);
  }
  EXPECT_EQ(Lines, Beat.beats());
  std::remove(Path.c_str());
}

TEST(HeartbeatTest, StartFailsOnBadPath) {
  Heartbeat Beat;
  EXPECT_FALSE(Beat.start("/nonexistent-dir/x/hb.jsonl", 100));
  EXPECT_FALSE(Beat.running());
}

} // namespace

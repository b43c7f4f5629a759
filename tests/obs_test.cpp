//===- tests/obs_test.cpp - Telemetry subsystem unit tests ----------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Covers the obs layer in isolation: counter/gauge registries and merge
// semantics, ScopedTally flushing, per-name span totals with self time,
// JSON escaping, instant events and their export, and report determinism.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "obs/Counters.h"
#include "obs/Report.h"
#include "obs/JsonValue.h"
#include "obs/Telemetry.h"
#include "obs/TraceExport.h"
#include "seq/BehaviorEnum.h"
#include "seq/SimpleRefinement.h"
#include "support/Truncation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include <unistd.h>

using namespace pseq;
using namespace pseq::obs;

namespace {

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

std::string tempPath(const char *Stem) {
  const char *Dir = std::getenv("TMPDIR");
  std::string Path = Dir && *Dir ? Dir : "/tmp";
  Path += '/';
  Path += Stem;
  Path += '.';
  Path += std::to_string(static_cast<unsigned long long>(::getpid()));
  return Path;
}

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

TEST(Counters, AddAndQuery) {
  Stats S;
  EXPECT_TRUE(S.empty());
  S.add("a.calls");
  S.add("a.calls", 4);
  S.add("b.calls", 2);
  EXPECT_EQ(S.counter("a.calls"), 5u);
  EXPECT_EQ(S.counter("b.calls"), 2u);
  EXPECT_EQ(S.counter("missing"), 0u);
  EXPECT_FALSE(S.empty());
}

TEST(Counters, GaugesSetAndMax) {
  Stats S;
  S.setGauge("depth", 3.0);
  S.maxGauge("depth", 1.0); // lower: keeps 3
  EXPECT_DOUBLE_EQ(S.gauge("depth"), 3.0);
  S.maxGauge("depth", 7.5); // higher: replaces
  EXPECT_DOUBLE_EQ(S.gauge("depth"), 7.5);
  S.setGauge("depth", 2.0); // set always overwrites
  EXPECT_DOUBLE_EQ(S.gauge("depth"), 2.0);
}

TEST(Counters, MergeAddsCountersAndMaxesGauges) {
  Stats A, B;
  A.add("shared", 3);
  A.add("only_a", 1);
  A.setGauge("peak", 10.0);
  B.add("shared", 4);
  B.add("only_b", 2);
  B.setGauge("peak", 6.0);
  B.setGauge("other", 1.0);
  A.merge(B);
  EXPECT_EQ(A.counter("shared"), 7u);
  EXPECT_EQ(A.counter("only_a"), 1u);
  EXPECT_EQ(A.counter("only_b"), 2u);
  EXPECT_DOUBLE_EQ(A.gauge("peak"), 10.0); // gauges take the max
  EXPECT_DOUBLE_EQ(A.gauge("other"), 1.0);
}

TEST(Counters, ScopedTallyFlushesOnDestruction) {
  Stats S;
  {
    ScopedTally Tally(&S);
    uint64_t &Hits = Tally.slot("hits");
    uint64_t &Misses = Tally.slot("misses");
    Hits += 3;
    ++Misses;
    // Same literal name returns the same slot.
    EXPECT_EQ(&Tally.slot("hits"), &Hits);
    // Nothing is visible in the target until flush.
    EXPECT_EQ(S.counter("hits"), 0u);
  }
  EXPECT_EQ(S.counter("hits"), 3u);
  EXPECT_EQ(S.counter("misses"), 1u);
}

TEST(Counters, ScopedTallyExplicitFlushDoesNotDoubleCount) {
  Stats S;
  ScopedTally Tally(&S);
  Tally.slot("n") += 5;
  Tally.flush();
  EXPECT_EQ(S.counter("n"), 5u);
  Tally.slot("n") += 2;
  Tally.flush();
  EXPECT_EQ(S.counter("n"), 7u);
}

TEST(Counters, ScopedTallyNullTargetIsNoop) {
  ScopedTally Tally(nullptr);
  Tally.slot("anything") += 42; // must not crash or leak anywhere
  Tally.flush();
}

TEST(Counters, ScopedTallySkipsZeroSlots) {
  Stats S;
  {
    ScopedTally Tally(&S);
    Tally.slot("touched") += 1;
    Tally.slot("untouched"); // registered but never incremented
  }
  EXPECT_EQ(S.counter("touched"), 1u);
  EXPECT_EQ(S.counters().count("untouched"), 0u);
}

//===----------------------------------------------------------------------===//
// Span totals
//===----------------------------------------------------------------------===//

TEST(SpanTotals, SelfTimeExcludesDirectChildren) {
  SpanRecorder R;
  {
    ScopedSpan Outer(&R, "outer");
    for (int I = 0; I != 3; ++I) {
      ScopedSpan Inner(&R, "inner");
      ScopedSpan Leaf(&R, "leaf");
    }
  }
  std::vector<SpanTotal> T = spanTotals(R);
  ASSERT_EQ(T.size(), 3u);
  // Sorted by name; re-entered names accumulate.
  EXPECT_EQ(T[0].Name, "inner");
  EXPECT_EQ(T[0].Count, 3u);
  EXPECT_EQ(T[1].Name, "leaf");
  EXPECT_EQ(T[1].Count, 3u);
  EXPECT_EQ(T[2].Name, "outer");
  EXPECT_EQ(T[2].Count, 1u);
  // A span's self time subtracts its direct children only: leaf time is
  // charged to inner, inner time to outer.
  EXPECT_DOUBLE_EQ(T[1].SelfMs, T[1].Ms);
  EXPECT_NEAR(T[0].SelfMs, T[0].Ms - T[1].Ms, 1e-9);
  EXPECT_NEAR(T[2].SelfMs, T[2].Ms - T[0].Ms, 1e-9);
  EXPECT_GE(T[2].Ms, T[0].Ms);
}

TEST(SpanTotals, LanesAggregateByName) {
  SpanRecorder R;
  std::thread Worker([&] { ScopedSpan S(&R, "work"); });
  Worker.join();
  { ScopedSpan S(&R, "work"); }
  ASSERT_EQ(R.lanes(), 2u);
  std::vector<SpanTotal> T = spanTotals(R);
  ASSERT_EQ(T.size(), 1u);
  EXPECT_EQ(T[0].Count, 2u);
  EXPECT_DOUBLE_EQ(T[0].SelfMs, T[0].Ms);
}

//===----------------------------------------------------------------------===//
// JSON encoding and instant events
//===----------------------------------------------------------------------===//

TEST(Json, EscapesSpecialCharacters) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(jsonEscape("tab\there"), "tab\\there");
  EXPECT_EQ(jsonEscape(std::string("ctl\x01", 4)), "ctl\\u0001");
}

TEST(Json, NumbersAreFiniteOrNull) {
  EXPECT_EQ(jsonNumber(1.5), "1.5");
  EXPECT_EQ(jsonNumber(0.0), "0");
  EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(jsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(InstantEvents, ExportedWithEveryArgKind) {
  Telemetry T;
  SpanRecorder Spans;
  T.Spans = &Spans;
  Spans.instant("alpha", {{"n", uint64_t(7)},
                          {"neg", int64_t(-3)},
                          {"flag", true},
                          {"name", "say \"hi\"\n"}});
  Spans.instant("beta", {{"r", 2.5}});
  ASSERT_EQ(Spans.instants(0).size(), 2u);
  EXPECT_EQ(Spans.totalSpans(), 2u); // instants count as lane records

  std::string Path = tempPath("pseq_obs_instants");
  ASSERT_TRUE(writeChromeTrace(T, Path, "obs_test", "complete"));
  std::string Text = slurp(Path);
  EXPECT_NE(Text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(Text.find("\"n\":7"), std::string::npos);
  EXPECT_NE(Text.find("\"neg\":-3"), std::string::npos);
  EXPECT_NE(Text.find("\"flag\":true"), std::string::npos);
  EXPECT_NE(Text.find("\"name\":\"say \\\"hi\\\"\\n\""), std::string::npos);
  EXPECT_NE(Text.find("\"r\":2.5"), std::string::npos);

  // The file must load with a strict JSON parser. Use python3 when
  // available, mirroring the documented check.
  if (std::system("command -v python3 >/dev/null 2>&1") == 0) {
    std::string Cmd =
        "python3 -c \"import json,sys; json.load(sys.stdin)\" < " + Path;
    EXPECT_EQ(std::system(Cmd.c_str()), 0) << "trace failed to parse";
  }
  std::remove(Path.c_str());
}

TEST(InstantEvents, EngineSitesRecordOnlyWithARecorder) {
  RefinementResult R;
  R.Holds = true;
  R.SrcBehaviors = 3;
  Telemetry T;
  observeRefinementCheck(&T, "seq.check.simple", R, 1.0); // no recorder
  EXPECT_EQ(T.Counters.counter("seq.check.simple.calls"), 1u);

  SpanRecorder Spans;
  T.Spans = &Spans;
  observeRefinementCheck(&T, "seq.check.simple", R, 1.0);
  ASSERT_EQ(Spans.lanes(), 1u);
  ASSERT_EQ(Spans.instants(0).size(), 1u);
  const InstantRecord &I = Spans.instants(0)[0];
  EXPECT_STREQ(I.Name, "seq.check.simple");
  std::vector<std::string> Keys;
  for (const InstantArg &A : I.Args)
    Keys.push_back(A.Key);
  EXPECT_EQ(Keys, (std::vector<std::string>{
                      "holds", "bounded", "cause", "initial_states",
                      "src_behaviors", "tgt_behaviors", "ms"}));
}

//===----------------------------------------------------------------------===//
// Reports
//===----------------------------------------------------------------------===//

namespace {

void populate(Telemetry &T) {
  T.Counters.add("z.last", 1);
  T.Counters.add("a.first", 2);
  T.Counters.setGauge("m.gauge", 4.5);
}

} // namespace

TEST(Report, JsonIsDeterministicAcrossIdenticalRuns) {
  Telemetry A, B;
  populate(A);
  populate(B);
  std::string JA = renderReportJson(A);
  EXPECT_EQ(JA, renderReportJson(B));
  // Counter keys render in sorted order regardless of insertion order.
  size_t First = JA.find("a.first");
  size_t Last = JA.find("z.last");
  ASSERT_NE(First, std::string::npos);
  ASSERT_NE(Last, std::string::npos);
  EXPECT_LT(First, Last);
  EXPECT_NE(JA.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(JA.find("\"gauges\":{"), std::string::npos);
  // No recorder attached: the span list is present and empty.
  EXPECT_NE(JA.find("\"spans\":[]"), std::string::npos);
}

TEST(Report, JsonListsSpanTotals) {
  Telemetry T;
  SpanRecorder R;
  T.Spans = &R;
  {
    ScopedSpan Outer(&R, "outer");
    ScopedSpan Inner(&R, "inner");
  }
  std::string J = renderReportJson(T);
  EXPECT_NE(J.find("{\"name\":\"inner\",\"count\":1,\"ms\":"),
            std::string::npos);
  EXPECT_NE(J.find("{\"name\":\"outer\",\"count\":1,\"ms\":"),
            std::string::npos);
  EXPECT_NE(J.find("\"self_ms\":"), std::string::npos);
}

TEST(Report, TableListsEverySection) {
  Telemetry T;
  populate(T);
  SpanRecorder R;
  T.Spans = &R;
  { ScopedSpan S(&R, "inner"); }
  std::string Table = renderReportTable(T);
  EXPECT_NE(Table.find("counters"), std::string::npos);
  EXPECT_NE(Table.find("gauges"), std::string::npos);
  EXPECT_NE(Table.find("spans"), std::string::npos);
  EXPECT_NE(Table.find("self ms"), std::string::npos);
  EXPECT_NE(Table.find("a.first"), std::string::npos);
  EXPECT_NE(Table.find("inner"), std::string::npos);

  Telemetry Empty;
  EXPECT_NE(renderReportTable(Empty).find("(no telemetry recorded)"),
            std::string::npos);
}

TEST(Report, WriteJsonRoundTripsThroughParser) {
  Telemetry T;
  populate(T);
  std::string Path = tempPath("pseq_obs_report");
  ASSERT_TRUE(writeReportJson(T, Path));
  if (std::system("command -v python3 >/dev/null 2>&1") == 0) {
    std::string Cmd = "python3 -c \"import json,sys; "
                      "json.load(sys.stdin)\" < " +
                      Path;
    EXPECT_EQ(std::system(Cmd.c_str()), 0) << "report JSON failed to parse";
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Truncation causes
//===----------------------------------------------------------------------===//

TEST(Truncation, NamesAreStable) {
  EXPECT_STREQ(truncationCauseName(TruncationCause::None), "none");
  EXPECT_STREQ(truncationCauseName(TruncationCause::StepBudget),
               "step-budget");
  EXPECT_STREQ(truncationCauseName(TruncationCause::BehaviorCap),
               "behavior-cap");
  EXPECT_STREQ(truncationCauseName(TruncationCause::StateBudget),
               "state-budget");
  EXPECT_STREQ(truncationCauseName(TruncationCause::CertBudget),
               "cert-budget");
}

TEST(Truncation, FirstCauseWins) {
  TruncationCause C = TruncationCause::None;
  noteTruncation(C, TruncationCause::StepBudget);
  noteTruncation(C, TruncationCause::StateBudget);
  EXPECT_EQ(C, TruncationCause::StepBudget);
}

TEST(Truncation, GuardCauseDisplacesBudgetCause) {
  TruncationCause C = TruncationCause::None;
  noteTruncation(C, TruncationCause::StepBudget);
  noteTruncation(C, TruncationCause::Deadline);
  EXPECT_EQ(C, TruncationCause::Deadline);
  noteTruncation(C, TruncationCause::Cancelled); // guard vs guard: first
  noteTruncation(C, TruncationCause::CertBudget);
  EXPECT_EQ(C, TruncationCause::Deadline);
}

//===----------------------------------------------------------------------===//
// Worker telemetry for a fan-out
//===----------------------------------------------------------------------===//

TEST(WorkerTelemetry, OneWorkerRecordsIntoTheCaller) {
  Telemetry Caller;
  WorkerTelemetry WT(&Caller, 1);
  EXPECT_EQ(WT[0], &Caller);
  WorkerTelemetry Off(nullptr, 4);
  EXPECT_EQ(Off[3], nullptr);
}

TEST(WorkerTelemetry, WorkersShareSpansAndMergeCounters) {
  Telemetry Caller;
  SpanRecorder Spans;
  Caller.Spans = &Spans;
  WorkerTelemetry WT(&Caller, 3);
  for (unsigned W = 0; W != 3; ++W) {
    ASSERT_NE(WT[W], &Caller);
    EXPECT_EQ(WT[W]->Spans, &Spans);
    WT[W]->Counters.add("k", W + 1);
  }
  EXPECT_EQ(Caller.Counters.counter("k"), 0u);
  WT.merge();
  EXPECT_EQ(Caller.Counters.counter("k"), 6u);
}

//===----------------------------------------------------------------------===//
// Counters-exact emission
//===----------------------------------------------------------------------===//

namespace {

/// Enumerates \p P's thread 0 from the all-zero initial state and returns
/// (set, emitted, dedup_hits) read back from a fresh telemetry registry.
struct EmitCounts {
  BehaviorSet B;
  uint64_t Emitted = 0;
  uint64_t DedupHits = 0;
};

EmitCounts enumerateCounted(const Program &P) {
  Telemetry Telem;
  SeqConfig Cfg;
  Cfg.NumThreads = 1;
  Cfg.Telem = &Telem;
  Cfg = resolveUniverse(Cfg, P, 0, P, 0);
  SeqMachine M(P, 0, Cfg);
  std::vector<Value> Mem(P.numLocs(), Value::of(0));
  EmitCounts Out;
  Out.B = enumerateBehaviors(
      M, M.initial(LocSet::empty(), LocSet::empty(), Mem));
  Out.Emitted = Telem.Counters.counter("seq.enum.behaviors_emitted");
  Out.DedupHits = Telem.Counters.counter("seq.enum.dedup_hits");
  return Out;
}

} // namespace

TEST(EmitInvariant, EmittedCountsEachUniqueBehaviorOnce) {
  // Non-atomic accesses are unlabeled, so revisiting a register-different
  // state under the same trace re-derives identical partial behaviors —
  // this program produces real dedup hits.
  std::unique_ptr<Program> P =
      parseOrDie("na y;\n"
                 "thread { a := y@na; b := y@na; y@na := 1; return b; }");

  EmitCounts Plain = enumerateCounted(*P);
  ASSERT_GT(Plain.DedupHits, 0u);
  // The invariant itself: every unique behavior is counted exactly once.
  EXPECT_EQ(Plain.Emitted, Plain.B.All.size());
}

} // namespace

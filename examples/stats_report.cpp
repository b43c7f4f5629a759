//===- examples/stats_report.cpp - Telemetry tour of the engines ----------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Drives every instrumented engine over the built-in corpora with one
// shared telemetry registry and prints the aggregated report:
//
//   * the validated optimizer pipeline over the refinement corpus
//     (per-pass rewrites, validation states, and per-span time: each
//     pass, its rewrite step, its validation);
//   * exhaustive PS^na exploration over the litmus corpus (states,
//     dedup rates, per-thread step counts);
//   * deliberately tight-budget reruns that exercise every truncation
//     cause (step budget, behavior cap, state budget, cert budget).
//
//   stats_report [--json <path>] [--trace-out <path>]
//   stats_report --diff <old.json> <new.json>
//
// With --json the same report is additionally written as one JSON object.
// --trace-out writes the run's Chrome trace-event / Perfetto JSON: every
// span and instant event, ending in a run.final instant.
//
// --diff compares two report JSON files (either stats_report --json output
// or a bench_* --json file — the report under its "telemetry" member is
// used) and prints counter deltas and histogram percentile shifts.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "litmus/Corpus.h"
#include "obs/JsonValue.h"
#include "obs/Report.h"
#include "obs/Telemetry.h"
#include "obs/TraceExport.h"
#include "opt/Pipeline.h"
#include "psna/Explorer.h"
#include "seq/BehaviorEnum.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

using namespace pseq;

namespace {

/// A choose-driven loop: unbounded behaviors, so small budgets truncate.
const char *LoopText = "na x;\n"
                       "thread { c := choose; "
                       "while (c != 0) { x@na := 1; c := choose; } "
                       "return 0; }";

double rate(uint64_t Hits, uint64_t Total) {
  return Total ? 100.0 * static_cast<double>(Hits) /
                     static_cast<double>(Total)
               : 0.0;
}

/// Loads a report JSON file for --diff. Accepts a bare report object or a
/// bench_* --json file, whose report sits under the "telemetry" member.
bool loadReport(const char *Path, obs::JsonValue &Out) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s\n", Path);
    return false;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Err;
  if (!obs::JsonValue::parse(Buf.str(), Out, &Err)) {
    std::fprintf(stderr, "error: %s: %s\n", Path, Err.c_str());
    return false;
  }
  if (const obs::JsonValue *Telemetry = Out.field("telemetry")) {
    // Copy out before overwriting: *Telemetry lives inside Out.
    obs::JsonValue Report = *Telemetry;
    Out = std::move(Report);
  }
  if (!Out.isObject()) {
    std::fprintf(stderr, "error: %s is not a report object\n", Path);
    return false;
  }
  return true;
}

/// Numeric members of a report section ("counters" / "gauges") as a map.
std::map<std::string, double> sectionValues(const obs::JsonValue &Report,
                                            const char *Section) {
  std::map<std::string, double> Out;
  if (const obs::JsonValue *S = Report.field(Section); S && S->isObject())
    for (const auto &[Key, V] : S->object())
      if (V.isNumber())
        Out[Key] = V.asNumber();
  return Out;
}

void printDeltaRows(const std::map<std::string, double> &Old,
                    const std::map<std::string, double> &New) {
  std::set<std::string> Keys;
  for (const auto &[K, V] : Old)
    Keys.insert(K);
  for (const auto &[K, V] : New)
    Keys.insert(K);
  for (const std::string &K : Keys) {
    auto OIt = Old.find(K), NIt = New.find(K);
    double O = OIt == Old.end() ? 0 : OIt->second;
    double N = NIt == New.end() ? 0 : NIt->second;
    if (O == N)
      continue;
    double Pct = O != 0 ? 100.0 * (N - O) / O : 0.0;
    std::printf("  %-36s %14.0f %14.0f %+10.0f", K.c_str(), O, N, N - O);
    if (O != 0)
      std::printf(" (%+.1f%%)", Pct);
    std::printf("\n");
  }
}

int diffReports(const char *OldPath, const char *NewPath) {
  obs::JsonValue OldR, NewR;
  if (!loadReport(OldPath, OldR) || !loadReport(NewPath, NewR))
    return 2;

  std::printf("report diff: %s -> %s\n\n", OldPath, NewPath);
  std::printf("counters%42s %14s %10s\n", "old", "new", "delta");
  printDeltaRows(sectionValues(OldR, "counters"),
                 sectionValues(NewR, "counters"));
  std::printf("\ngauges%44s %14s %10s\n", "old", "new", "delta");
  printDeltaRows(sectionValues(OldR, "gauges"), sectionValues(NewR, "gauges"));

  // Histogram percentile shifts: one row per percentile that moved.
  std::printf("\nhistograms%40s %14s %10s\n", "old", "new", "delta");
  const obs::JsonValue *OldH = OldR.field("histograms");
  const obs::JsonValue *NewH = NewR.field("histograms");
  std::set<std::string> Keys;
  if (OldH && OldH->isObject())
    for (const auto &[K, V] : OldH->object())
      Keys.insert(K);
  if (NewH && NewH->isObject())
    for (const auto &[K, V] : NewH->object())
      Keys.insert(K);
  for (const std::string &K : Keys) {
    const obs::JsonValue *O = OldH ? OldH->field(K) : nullptr;
    const obs::JsonValue *N = NewH ? NewH->field(K) : nullptr;
    for (const char *P : {"count", "p50", "p90", "p99", "max"}) {
      const obs::JsonValue *OV = O ? O->field(P) : nullptr;
      const obs::JsonValue *NV = N ? N->field(P) : nullptr;
      double OD = OV && OV->isNumber() ? OV->asNumber() : 0;
      double ND = NV && NV->isNumber() ? NV->asNumber() : 0;
      if (OD == ND)
        continue;
      std::string Row = K + "." + P;
      std::printf("  %-36s %14.1f %14.1f %+10.1f", Row.c_str(), OD, ND,
                  ND - OD);
      if (OD != 0)
        std::printf(" (%+.1f%%)", 100.0 * (ND - OD) / OD);
      std::printf("\n");
    }
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath, TraceOutPath;
  if (Argc == 4 && std::strcmp(Argv[1], "--diff") == 0)
    return diffReports(Argv[2], Argv[3]);
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--json") == 0 && I + 1 < Argc) {
      JsonPath = Argv[++I];
    } else if (std::strncmp(Argv[I], "--json=", 7) == 0) {
      JsonPath = Argv[I] + 7;
    } else if (std::strcmp(Argv[I], "--trace-out") == 0 && I + 1 < Argc) {
      TraceOutPath = Argv[++I];
    } else if (std::strncmp(Argv[I], "--trace-out=", 12) == 0) {
      TraceOutPath = Argv[I] + 12;
    } else {
      std::fprintf(stderr,
                   "usage: stats_report [--json <path>] [--trace-out <path>]\n"
                   "       stats_report --diff <old.json> <new.json>\n");
      return 1;
    }
  }

  obs::Telemetry Telem;
  // The report's timing section: per-span-name counts, time and self time.
  obs::SpanRecorder Spans;
  Telem.Spans = &Spans;

  // 1. Validated pipeline over the refinement corpus sources (they carry
  //    the SLF/LLF/DSE-shaped redundancy the passes fire on).
  unsigned PipelineRuns = 0, Rewrites = 0;
  for (const RefinementCase &RC : refinementCorpus()) {
    std::unique_ptr<Program> P = parseOrDie(RC.Src);
    PipelineOptions Opts;
    Opts.Cfg.Domain = RC.Domain;
    Opts.Cfg.StepBudget = RC.StepBudget;
    Opts.Telem = &Telem;
    PipelineResult R = runPipeline(*P, Opts);
    ++PipelineRuns;
    Rewrites += R.TotalRewrites;
  }
  std::printf("pipeline: %u corpus sources optimized, %u rewrites total\n",
              PipelineRuns, Rewrites);

  // 2. PS^na exploration over the litmus corpus at its own budgets.
  unsigned Explored = 0;
  for (const LitmusCase &LC : litmusCorpus()) {
    std::unique_ptr<Program> P = parseOrDie(LC.Text);
    PsConfig Cfg;
    Cfg.Domain = LC.Domain;
    Cfg.PromiseBudget = LC.PromiseBudget;
    Cfg.SplitBudget = LC.SplitBudget;
    Cfg.Telem = &Telem;
    explorePsna(*P, Cfg);
    ++Explored;
  }
  std::printf("psna: %u litmus tests explored\n", Explored);

  // 3. Tight-budget reruns: one run per truncation cause.
  std::printf("truncation showcase:\n");
  {
    std::unique_ptr<Program> P = parseOrDie(LoopText);
    SeqConfig Cfg;
    Cfg.Domain = ValueDomain::binary();
    Cfg.Universe = P->naLocs();
    Cfg.StepBudget = 6;
    Cfg.Telem = &Telem;
    SeqMachine M(*P, 0, Cfg);
    std::vector<Value> Mem(P->numLocs(), Value::of(0));
    BehaviorSet B = enumerateBehaviors(
        M, M.initial(P->naLocs(), LocSet::empty(), Mem));
    std::printf("  seq loop, step budget 6   -> %s\n",
                truncationCauseName(B.Cause));

    Cfg.MaxBehaviors = 3;
    SeqMachine M2(*P, 0, Cfg);
    BehaviorSet B2 = enumerateBehaviors(
        M2, M2.initial(P->naLocs(), LocSet::empty(), Mem));
    std::printf("  seq loop, behavior cap 3  -> %s\n",
                truncationCauseName(B2.Cause));
  }
  {
    const LitmusCase &LC = litmusCaseByName("lb-rlx");
    std::unique_ptr<Program> P = parseOrDie(LC.Text);
    PsConfig Cfg;
    Cfg.Domain = LC.Domain;
    Cfg.PromiseBudget = LC.PromiseBudget;
    Cfg.MaxStates = 20;
    Cfg.Telem = &Telem;
    PsBehaviorSet B = explorePsna(*P, Cfg);
    std::printf("  psna lb-rlx, 20 states    -> %s\n",
                truncationCauseName(B.Cause));
  }
  {
    const LitmusCase &LC = litmusCaseByName("ex5.1-promise-racy-read");
    std::unique_ptr<Program> P = parseOrDie(LC.Text);
    PsConfig Cfg;
    Cfg.Domain = LC.Domain;
    Cfg.PromiseBudget = LC.PromiseBudget;
    Cfg.SplitBudget = LC.SplitBudget;
    Cfg.CertNodeBudget = 1;
    Cfg.Telem = &Telem;
    PsBehaviorSet B = explorePsna(*P, Cfg);
    std::printf("  psna ex5.1, cert budget 1 -> %s\n",
                truncationCauseName(B.Cause));
  }

  // 4. Derived rates from the aggregated counters.
  uint64_t SeqEmitted = Telem.Counters.counter("seq.enum.behaviors_emitted");
  uint64_t SeqDedup = Telem.Counters.counter("seq.enum.dedup_hits");
  uint64_t PsSteps = 0;
  for (const auto &[Name, V] : Telem.Counters.counters())
    if (Name.rfind("psna.explore.thread", 0) == 0)
      PsSteps += V;
  uint64_t PsDedup = Telem.Counters.counter("psna.explore.dedup_hits");
  std::printf("dedup rates: seq %.1f%% (%llu/%llu emits), "
              "psna %.1f%% (%llu/%llu generated)\n",
              rate(SeqDedup, SeqEmitted + SeqDedup),
              static_cast<unsigned long long>(SeqDedup),
              static_cast<unsigned long long>(SeqEmitted + SeqDedup),
              rate(PsDedup, PsSteps),
              static_cast<unsigned long long>(PsDedup),
              static_cast<unsigned long long>(PsSteps));

  std::printf("\n%s", obs::renderReportTable(Telem).c_str());

  if (!JsonPath.empty() && !obs::writeReportJson(Telem, JsonPath)) {
    std::fprintf(stderr, "error: cannot write %s\n", JsonPath.c_str());
    return 1;
  }
  if (!TraceOutPath.empty() &&
      !obs::writeChromeTrace(Telem, TraceOutPath, "stats_report",
                             "complete")) {
    std::fprintf(stderr, "error: cannot write %s\n", TraceOutPath.c_str());
    return 1;
  }
  return 0;
}

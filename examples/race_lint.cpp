//===- examples/race_lint.cpp - Static race & access-mode analysis --------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Runs the flow-sensitive static race analyzer (analysis/RaceLint.h) and
// prints per-program verdicts: race-free (proved), potentially-racy (with a
// concrete witness pair), or atomics-only.
//
//   race_lint [--json] [--trace-out PATH] [file | corpus-case-name]
//
// With no positional argument the whole litmus corpus is analyzed, one
// verdict line per case. --json emits a machine-readable report (verdict,
// witness, per-thread footprints) instead of the human-readable text.
// --trace-out writes a Chrome trace-event / Perfetto JSON with one span per
// analyzed program, ending in a run.final instant with the run's counters.
//
//===----------------------------------------------------------------------===//

#include "analysis/RaceLint.h"
#include "lang/Parser.h"
#include "litmus/Corpus.h"
#include "obs/Span.h"
#include "obs/Telemetry.h"
#include "obs/TraceExport.h"
#include "support/CliArgs.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace pseq;

namespace {

int report(const std::string &Title, const std::string &Text, bool Json,
           obs::Telemetry *Telem) {
  std::unique_ptr<Program> P = parseOrDie(Text);
  analysis::RaceReport Rep = [&] {
    obs::ScopedSpan Span(Telem ? Telem->Spans : nullptr, "race_lint.analyze");
    return analysis::analyzeRaces(*P, Telem);
  }();
  if (Json) {
    std::printf("%s\n", Rep.json(*P).c_str());
  } else {
    std::printf("== %s ==\n%s", Title.c_str(), Rep.str(*P).c_str());
  }
  return Rep.Verdict == analysis::RaceVerdict::PotentiallyRacy ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Json = false;
  const char *Pos = nullptr;
  std::string TraceOutPath;
  for (int I = 1; I < Argc; ++I) {
    const char *Value = nullptr;
    if (std::strcmp(Argv[I], "--json") == 0) {
      Json = true;
    } else if (std::strcmp(Argv[I], "--help") == 0) {
      std::printf("usage: %s [--json] [--trace-out PATH] "
                  "[file | corpus-case-name]\n",
                  Argc ? Argv[0] : "race_lint");
      return 0;
    } else if (cli::flagValue(Argc, Argv, I, "--trace-out", Value)) {
      if (!Value || !*Value) {
        std::fprintf(stderr, "error: --trace-out needs a path\n");
        return 2;
      }
      TraceOutPath = Value;
    } else if (!Pos) {
      Pos = Argv[I];
    } else {
      std::fprintf(stderr, "error: unexpected argument '%s'\n", Argv[I]);
      return 2;
    }
  }

  obs::Telemetry Telem;
  obs::SpanRecorder Spans;
  Telem.Spans = &Spans;
  obs::Telemetry *TelemPtr = TraceOutPath.empty() ? nullptr : &Telem;
  auto finish = [&](int Code) {
    if (TelemPtr &&
        !obs::writeChromeTrace(Telem, TraceOutPath, "race_lint", "complete")) {
      std::fprintf(stderr, "error: cannot write %s\n", TraceOutPath.c_str());
      return 2;
    }
    return Code;
  };

  if (!Pos) {
    // Corpus mode: one verdict line per litmus case (plus witness when racy).
    int Racy = 0;
    if (Json)
      std::printf("[\n");
    bool First = true;
    for (const LitmusCase &LC : litmusCorpus()) {
      std::unique_ptr<Program> P = parseOrDie(LC.Text);
      analysis::RaceReport Rep = [&] {
        obs::ScopedSpan Span(TelemPtr ? TelemPtr->Spans : nullptr,
                             "race_lint.analyze");
        return analysis::analyzeRaces(*P, TelemPtr);
      }();
      if (Json) {
        std::printf("%s{\"case\": \"%s\", \"report\": %s}", First ? "" : ",\n",
                    LC.Name.c_str(), Rep.json(*P).c_str());
        First = false;
      } else {
        std::printf("%-28s %s\n", LC.Name.c_str(),
                    analysis::raceVerdictName(Rep.Verdict));
        if (Rep.Witness)
          std::printf("    %s\n", Rep.Witness->str(*P).c_str());
      }
      Racy += Rep.Verdict == analysis::RaceVerdict::PotentiallyRacy;
    }
    if (Json)
      std::printf("\n]\n");
    else
      std::printf("\n%zu cases, %d potentially racy\n", litmusCorpus().size(),
                  Racy);
    return finish(0);
  }

  // A file, or a named corpus case.
  std::ifstream In(Pos);
  if (In) {
    std::stringstream Buf;
    Buf << In.rdbuf();
    return finish(report(Pos, Buf.str(), Json, TelemPtr));
  }
  for (const LitmusCase &LC : litmusCorpus())
    if (LC.Name == Pos)
      return finish(
          report(LC.Name + " [" + LC.PaperRef + "]", LC.Text, Json, TelemPtr));
  std::fprintf(stderr, "error: cannot open '%s' (not a file or corpus case)\n",
               Pos);
  return 2;
}

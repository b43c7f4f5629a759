//===- examples/atlas_report.cpp - The transformation atlas, tabulated ----===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Enumerates and decides the full transformation atlas (src/atlas) and
// prints per-category tallies. With --markdown the rendered golden table
// goes to stdout instead, byte-equal to tests/golden/atlas.md. With
// --trace-out <path> the run's Chrome trace-event / Perfetto JSON is
// written to <path>; it ends in a run.final instant carrying the atlas.*
// counters, which the CI baseline gate reads
// (tools/check_bench_baseline.py --group atlas).
//
//===----------------------------------------------------------------------===//

#include "atlas/Atlas.h"
#include "exec/ThreadPool.h"
#include "obs/Telemetry.h"
#include "obs/TraceExport.h"
#include "support/CliArgs.h"

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

using namespace pseq;

int main(int Argc, char **Argv) {
  bool Markdown = false;
  std::string TraceOutPath;
  atlas::AtlasOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    const char *Value = nullptr;
    std::string Err;
    if (std::strcmp(Argv[I], "--markdown") == 0) {
      Markdown = true;
    } else if (cli::flagValue(Argc, Argv, I, "--threads", Value)) {
      if (!cli::parseUnsignedInRange("--threads", Value, 1u,
                                     exec::maxThreads(), Opts.NumThreads,
                                     Err)) {
        std::fprintf(stderr, "atlas_report: %s\n", Err.c_str());
        return 2;
      }
    } else if (cli::flagValue(Argc, Argv, I, "--trace-out", Value) && Value &&
               *Value) {
      TraceOutPath = Value;
    } else {
      std::fprintf(stderr, "usage: atlas_report [--markdown] [--threads N] "
                           "[--trace-out PATH]\n");
      return 2;
    }
  }

  obs::Telemetry Telem;
  obs::SpanRecorder Spans;
  if (!TraceOutPath.empty()) {
    Telem.Spans = &Spans;
    Opts.Telem = &Telem;
  }
  atlas::AtlasResult R = atlas::buildAtlas(Opts);
  if (!TraceOutPath.empty() &&
      !obs::writeChromeTrace(Telem, TraceOutPath, "atlas_report",
                             "complete")) {
    std::fprintf(stderr, "error: cannot write %s\n", TraceOutPath.c_str());
    return 1;
  }
  if (Markdown) {
    std::fputs(atlas::renderAtlasMarkdown(R).c_str(), stdout);
    return 0;
  }

  std::map<std::string, std::map<atlas::AtlasVerdict, unsigned>> ByCat;
  for (const atlas::AtlasEntry &E : R.Entries)
    ++ByCat[atlas::categoryName(E.Cat)][E.Verdict];
  std::printf("%-10s %6s %15s %8s\n", "category", "sound", "seq-incomplete",
              "unsound");
  for (const auto &[Cat, Tally] : ByCat) {
    auto get = [&](atlas::AtlasVerdict V) {
      auto It = Tally.find(V);
      return It == Tally.end() ? 0u : It->second;
    };
    std::printf("%-10s %6u %15u %8u\n", Cat.c_str(),
                get(atlas::AtlasVerdict::Sound),
                get(atlas::AtlasVerdict::SeqIncomplete),
                get(atlas::AtlasVerdict::Unsound));
  }
  std::printf("%-10s %6u %15u %8u\n", "total", R.Sound, R.SeqIncomplete,
              R.Unsound);
  std::printf("mismatch %u (certified by the SEQ checkers, rejected by "
              "PS^na), bounded %u\n",
              R.Mismatches, R.BoundedEntries);
  // Mismatch rows are pinned (not forbidden): the golden table and the
  // baseline gate hold the set fixed, so the report itself always exits 0.
  return 0;
}

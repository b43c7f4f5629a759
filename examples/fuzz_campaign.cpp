//===- examples/fuzz_campaign.cpp - Crash-isolated fuzzing driver ---------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Fuzzes the adequacy harness (Thm 6.2) over random (source, target)
// pairs, each checked in a fork-isolated child so crashes, memory
// blow-ups, and hangs cost one pair, not the campaign:
//
//   fuzz_campaign [--seed N] [--count N] [--seed-corpus NAME]
//                 [--deadline-ms N] [--mem-mb N]
//                 [--wall-ms N] [--total-ms N] [--no-isolate] [--no-shrink]
//                 [--no-memo] [--fault crash|oom|hang] [--inject-at N]
//                 [--trace-out PATH] [--verbose]
//
// --seed-corpus selects where pairs come from: the default random
// single-thread stream, or "realworld" to mutate the lock-free protocol
// corpus (a typo lists the available corpora and exits 2 instead of
// aborting). Numeric arguments are parsed strictly (garbage = usage
// error). --fault
// injects one artificial child failure (self-test of the isolation and
// classification machinery); it requires isolation, and --wall-ms then
// bounds the injected pair alone. --trace-out writes a Chrome trace-event /
// Perfetto JSON with one span and one fuzz.pair instant per pair, ending in
// a run.final instant with the campaign's counters; it is also rewritten
// after every crashed/limited child, so the record survives a dying
// parent. Exit status: 0 when the campaign is clean, 1 on mismatches or
// unclassified crashes (real findings).
//
//===----------------------------------------------------------------------===//

#include "adequacy/FuzzCampaign.h"
#include "guard/Isolate.h"
#include "guard/Signals.h"
#include "obs/Span.h"
#include "obs/Telemetry.h"
#include "obs/TraceExport.h"
#include "support/CliArgs.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace pseq;

namespace {

int usage(const char *Prog, const char *What, const char *Value) {
  if (What)
    std::fprintf(stderr, "error: invalid value '%s' for %s\n",
                 Value ? Value : "", What);
  std::fprintf(stderr,
               "usage: %s [--seed N] [--count N] [--seed-corpus NAME] "
               "[--deadline-ms N] "
               "[--mem-mb N] [--wall-ms N] [--total-ms N] [--no-isolate] "
               "[--no-shrink] [--no-memo] [--fault crash|oom|hang] "
               "[--inject-at N] [--trace-out PATH] [--verbose]\n",
               Prog);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *Prog = Argc ? Argv[0] : "fuzz_campaign";
  CampaignOptions Opts;
  std::string TraceOutPath;

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    const char *Value = nullptr;
    auto flagValue = [&](const char *Flag) {
      return cli::flagValue(Argc, Argv, I, Flag, Value) &&
             Value != nullptr;
    };
    if (flagValue("--seed")) {
      if (!cli::parseUnsigned(Value, Opts.Seed))
        return usage(Prog, "--seed", Value);
    } else if (flagValue("--count")) {
      if (!cli::parseUnsigned(Value, Opts.Count))
        return usage(Prog, "--count", Value);
    } else if (flagValue("--seed-corpus")) {
      if (!campaignSeedCorpusKnown(Value)) {
        std::fprintf(stderr,
                     "error: unknown seed corpus '%s'\n"
                     "available seed corpora: %s\n",
                     Value, campaignSeedCorpusList());
        return 2;
      }
      Opts.SeedCorpus = std::strcmp(Value, "random") == 0 ? "" : Value;
    } else if (flagValue("--deadline-ms")) {
      if (!cli::parseUnsigned(Value, Opts.DeadlineMs) || !Opts.DeadlineMs)
        return usage(Prog, "--deadline-ms", Value);
    } else if (flagValue("--mem-mb")) {
      if (!cli::parseUnsigned(Value, Opts.MemMb) || !Opts.MemMb)
        return usage(Prog, "--mem-mb", Value);
    } else if (flagValue("--wall-ms")) {
      if (!cli::parseUnsigned(Value, Opts.WallMs))
        return usage(Prog, "--wall-ms", Value);
    } else if (flagValue("--total-ms")) {
      if (!cli::parseUnsigned(Value, Opts.TotalMs) || !Opts.TotalMs)
        return usage(Prog, "--total-ms", Value);
    } else if (flagValue("--inject-at")) {
      if (!cli::parseUnsigned(Value, Opts.InjectAt))
        return usage(Prog, "--inject-at", Value);
    } else if (flagValue("--trace-out")) {
      if (!*Value)
        return usage(Prog, "--trace-out", Value);
      TraceOutPath = Value;
    } else if (flagValue("--fault")) {
      if (std::strcmp(Value, "crash") == 0)
        Opts.Fault = FaultKind::Crash;
      else if (std::strcmp(Value, "oom") == 0)
        Opts.Fault = FaultKind::Oom;
      else if (std::strcmp(Value, "hang") == 0)
        Opts.Fault = FaultKind::Hang;
      else
        return usage(Prog, "--fault", Value);
    } else if (A == "--no-isolate") {
      Opts.Isolate = false;
    } else if (A == "--no-shrink") {
      Opts.ShrinkFailures = false;
    } else if (A == "--no-memo") {
      Opts.UseMemo = false;
    } else if (A == "--verbose") {
      Opts.Verbose = true;
    } else {
      return usage(Prog, "argument", Argv[I]);
    }
  }
  if (Opts.Fault != FaultKind::None &&
      (!Opts.Isolate || !guard::isolationSupported())) {
    std::fprintf(stderr, "error: --fault requires fork isolation\n");
    return 2;
  }

  // Ctrl-C / SIGTERM stops the campaign between pairs: already-classified
  // pairs keep their buckets, telemetry and the trace export still flush,
  // and the process exits with the distinct graceful code.
  guard::installShutdownHandlers();

  obs::Telemetry Telem;
  obs::SpanRecorder Spans;
  if (!TraceOutPath.empty())
    Telem.Spans = &Spans;
  Opts.Telem = &Telem;
  Opts.TraceOutPath = TraceOutPath;

  std::printf("fuzz campaign: seed=%llu count=%u corpus=%s isolation=%s\n",
              static_cast<unsigned long long>(Opts.Seed), Opts.Count,
              Opts.SeedCorpus.empty() ? "random" : Opts.SeedCorpus.c_str(),
              Opts.Isolate && guard::isolationSupported() ? "fork" : "off");
  CampaignStats S = runFuzzCampaign(Opts);

  std::printf("pairs    %u%s%s\n", S.Pairs,
              S.TimedOut ? "  (campaign wall budget hit)" : "",
              S.Interrupted ? "  (interrupted by signal)" : "");
  std::printf("  agree    %u\n", S.Agree);
  std::printf("  mismatch %u\n", S.Mismatch);
  std::printf("  bounded  %u\n", S.Bounded);
  std::printf("  deadline %u\n", S.Deadline);
  std::printf("  oom      %u\n", S.Oom);
  std::printf("  crash    %u\n", S.Crash);
  std::printf("  isolated %u\n", S.Isolated);
  for (const std::string &F : S.Findings)
    std::printf("\nFINDING %s\n", F.c_str());
  if (!TraceOutPath.empty() &&
      !obs::writeChromeTrace(Telem, TraceOutPath, "fuzz_campaign",
                             S.Interrupted ? "shutdown-signal"
                             : S.clean()   ? "complete"
                                           : "findings")) {
    std::fprintf(stderr, "error: cannot write %s\n", TraceOutPath.c_str());
    return 2;
  }
  // Findings outrank the interrupt: a mismatch seen before Ctrl-C must
  // still fail the run.
  if (!S.clean())
    return 1;
  return S.Interrupted ? guard::GracefulSignalExit : 0;
}

//===- examples/validate_server.cpp - Validation-as-a-service daemon ------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The long-lived validation daemon (serve/Server.h): accepts batches of
// (source, target, config) jobs over a Unix socket, runs them across
// crash-isolated workers, and answers every job with exactly one verdict
// or classified failure. SIGTERM/SIGINT drain gracefully — snapshots are
// saved and the process exits with the distinct graceful code (75) — so
// supervisors can tell an orderly stop from a crash.
//
//   validate_server --socket /tmp/pseq.sock --workers 4 \
//     --snapshot /var/tmp/pseq.snap [--chaos]
//
//===----------------------------------------------------------------------===//

#include "guard/Signals.h"
#include "obs/Telemetry.h"
#include "serve/Server.h"
#include "support/CliArgs.h"

#include <cstdio>
#include <string>

using namespace pseq;

namespace {

int usage(const char *Msg) {
  if (Msg)
    std::fprintf(stderr, "validate_server: %s\n", Msg);
  std::fprintf(
      stderr,
      "usage: validate_server --socket PATH [options]\n"
      "  --socket PATH        Unix socket to listen on (required)\n"
      "  --workers N          worker threads (default 2)\n"
      "  --queue-high-water N admission cap before shedding (default 256)\n"
      "  --snapshot PATH      warm-cache snapshot base path (default off)\n"
      "  --cache-mb N         verdict cache byte cap in MiB (default 8)\n"
      "  --deadline-ms N      default per-job deadline (default 5000)\n"
      "  --mem-mb N           default per-job memory budget (default 512)\n"
      "  --step-budget N      default SEQ step budget (default 48)\n"
      "  --max-attempts N     isolated tries per job (default 3)\n"
      "  --backoff-ms N       retry backoff base (default 10)\n"
      "  --no-isolate         run jobs in-process (no fork isolation)\n"
      "  --chaos              deterministically kill ~1/3 of first\n"
      "                       attempts mid-job (self-test mode)\n"
      "  --chaos-seed N       chaos selection seed (default 1)\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  serve::ServerOptions Opts;
  std::string Err;

  for (int I = 1; I < argc; ++I) {
    const char *V = nullptr;
    uint64_t N = 0;
    std::string A = argv[I];
    if (cli::flagValue(argc, argv, I, "--socket", V)) {
      if (!V)
        return usage("--socket needs a path");
      Opts.SocketPath = V;
    } else if (cli::flagValue(argc, argv, I, "--workers", V)) {
      if (!cli::parseUnsignedInRange("--workers", V, 1, 256, N, Err))
        return usage(Err.c_str());
      Opts.NumWorkers = static_cast<unsigned>(N);
    } else if (cli::flagValue(argc, argv, I, "--queue-high-water", V)) {
      if (!cli::parseUnsignedInRange("--queue-high-water", V, 1, 1u << 20, N,
                                     Err))
        return usage(Err.c_str());
      Opts.QueueHighWater = static_cast<size_t>(N);
    } else if (cli::flagValue(argc, argv, I, "--snapshot", V)) {
      if (!V)
        return usage("--snapshot needs a path");
      Opts.SnapshotPath = V;
    } else if (cli::flagValue(argc, argv, I, "--cache-mb", V)) {
      if (!cli::parseUnsignedInRange("--cache-mb", V, 1, 4096, N, Err))
        return usage(Err.c_str());
      Opts.CacheCapBytes = N << 20;
    } else if (cli::flagValue(argc, argv, I, "--deadline-ms", V)) {
      if (!cli::parseUnsignedInRange("--deadline-ms", V, 1, 3600000, N, Err))
        return usage(Err.c_str());
      Opts.Policy.DefaultDeadlineMs = N;
    } else if (cli::flagValue(argc, argv, I, "--mem-mb", V)) {
      if (!cli::parseUnsignedInRange("--mem-mb", V, 16, 65536, N, Err))
        return usage(Err.c_str());
      Opts.Policy.DefaultMemMb = N;
    } else if (cli::flagValue(argc, argv, I, "--step-budget", V)) {
      if (!cli::parseUnsignedInRange("--step-budget", V, 1, 100000, N, Err))
        return usage(Err.c_str());
      Opts.Policy.DefaultStepBudget = static_cast<unsigned>(N);
    } else if (cli::flagValue(argc, argv, I, "--max-attempts", V)) {
      if (!cli::parseUnsignedInRange("--max-attempts", V, 1, 10, N, Err))
        return usage(Err.c_str());
      Opts.Policy.MaxAttempts = static_cast<unsigned>(N);
    } else if (cli::flagValue(argc, argv, I, "--backoff-ms", V)) {
      if (!cli::parseUnsignedInRange("--backoff-ms", V, 1, 10000, N, Err))
        return usage(Err.c_str());
      Opts.Policy.BackoffBaseMs = N;
    } else if (A == "--no-isolate") {
      Opts.Policy.Isolate = false;
    } else if (A == "--chaos") {
      Opts.Policy.Chaos = true;
    } else if (cli::flagValue(argc, argv, I, "--chaos-seed", V)) {
      if (!cli::parseUnsignedInRange("--chaos-seed", V, 0,
                                     ~uint64_t(0) - 1, N, Err))
        return usage(Err.c_str());
      Opts.Policy.ChaosSeed = N;
    } else if (A == "--help" || A == "-h") {
      usage(nullptr);
      return 0;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (Opts.SocketPath.empty())
    return usage("--socket is required");

  guard::installShutdownHandlers();

  obs::Telemetry Telem;
  Opts.Telem = &Telem;

  serve::Server Server(std::move(Opts));
  if (!Server.start(Err)) {
    std::fprintf(stderr, "validate_server: %s\n", Err.c_str());
    return 1;
  }
  std::fprintf(stderr, "validate_server: listening\n");
  Server.run(); // returns after the graceful drain

  const serve::ServerTallies &T = Server.tallies();
  std::fprintf(stderr,
               "validate_server: served %llu jobs (%llu ok, %llu failed, "
               "%llu shed), %llu cache hits\n",
               static_cast<unsigned long long>(T.Jobs.load()),
               static_cast<unsigned long long>(T.JobsOk.load()),
               static_cast<unsigned long long>(T.JobsFailed.load()),
               static_cast<unsigned long long>(T.Shed.load()),
               static_cast<unsigned long long>(Server.cache().stats().Hits));

  return guard::shutdownRequested() ? guard::GracefulSignalExit : 0;
}

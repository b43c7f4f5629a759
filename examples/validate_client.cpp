//===- examples/validate_client.cpp - Validation-server batch client ------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The batch client for validate_server: submits the paper's refinement
// corpus (or stdin-fed single jobs) over the wire protocol, collects one
// verdict per job, and optionally writes a JSON summary (jobs/sec,
// cross-request cache hit rate, coverage) that the CI gate checks
// (tools/check_bench_baseline.py --group server).
//
//   validate_client --socket /tmp/pseq.sock --corpus --repeat 2 \
//     --expect-complete --bench-out out.json
//   validate_client --socket /tmp/pseq.sock --ping
//   validate_client --socket /tmp/pseq.sock --stats
//   validate_client --socket /tmp/pseq.sock --shutdown
//
//===----------------------------------------------------------------------===//

#include "litmus/Corpus.h"
#include "obs/JsonValue.h"
#include "serve/Protocol.h"
#include "serve/Wire.h"
#include "support/AtomicFile.h"
#include "support/CliArgs.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <string>

using namespace pseq;

namespace {

int usage(const char *Msg) {
  if (Msg)
    std::fprintf(stderr, "validate_client: %s\n", Msg);
  std::fprintf(
      stderr,
      "usage: validate_client --socket PATH [mode] [options]\n"
      "modes (default --corpus):\n"
      "  --ping               round-trip a ping and exit\n"
      "  --stats              print the server's stats reply\n"
      "  --shutdown           ask the server to drain and stop\n"
      "  --corpus             submit the refinement corpus as a batch\n"
      "options:\n"
      "  --repeat N           submit the batch N times (default 1)\n"
      "  --expect-complete    fail unless every job got exactly one reply\n"
      "  --bench-out FILE     write jobs/sec + hit-rate JSON summary\n"
      "  --quiet              per-job lines off\n");
  return 2;
}

/// Reads the server's stats reply into counter map \p Counters.
bool fetchStats(int Fd, std::map<std::string, uint64_t> &Counters,
                std::map<std::string, double> &Gauges) {
  if (!serve::sendFrame(Fd, serve::encodeStatsRequest()))
    return false;
  std::string Payload;
  if (!serve::recvFrame(Fd, Payload))
    return false;
  obs::JsonValue V;
  if (!obs::JsonValue::parse(Payload, V) || !V.isObject())
    return false;
  if (const obs::JsonValue *C = V.field("counters"))
    for (const auto &KV : C->object())
      if (KV.second.isNumber())
        Counters[KV.first] = static_cast<uint64_t>(KV.second.asNumber());
  if (const obs::JsonValue *G = V.field("gauges"))
    for (const auto &KV : G->object())
      if (KV.second.isNumber())
        Gauges[KV.first] = KV.second.asNumber();
  return true;
}

} // namespace

int main(int argc, char **argv) {
  std::string SocketPath, BenchOut;
  enum { Corpus, Ping, Stats, Shutdown } Mode = Corpus;
  uint64_t Repeat = 1;
  bool ExpectComplete = false;
  bool Quiet = false;
  std::string Err;

  for (int I = 1; I < argc; ++I) {
    const char *V = nullptr;
    std::string A = argv[I];
    if (cli::flagValue(argc, argv, I, "--socket", V)) {
      if (!V)
        return usage("--socket needs a path");
      SocketPath = V;
    } else if (A == "--ping") {
      Mode = Ping;
    } else if (A == "--stats") {
      Mode = Stats;
    } else if (A == "--shutdown") {
      Mode = Shutdown;
    } else if (A == "--corpus") {
      Mode = Corpus;
    } else if (cli::flagValue(argc, argv, I, "--repeat", V)) {
      if (!cli::parseUnsignedInRange("--repeat", V, 1, 1000, Repeat, Err))
        return usage(Err.c_str());
    } else if (A == "--expect-complete") {
      ExpectComplete = true;
    } else if (cli::flagValue(argc, argv, I, "--bench-out", V)) {
      if (!V)
        return usage("--bench-out needs a path");
      BenchOut = V;
    } else if (A == "--quiet") {
      Quiet = true;
    } else if (A == "--help" || A == "-h") {
      usage(nullptr);
      return 0;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (SocketPath.empty())
    return usage("--socket is required");

  int Fd = serve::connectUnix(SocketPath, &Err);
  if (Fd < 0) {
    std::fprintf(stderr, "validate_client: %s\n", Err.c_str());
    return 1;
  }

  if (Mode == Ping || Mode == Shutdown) {
    const std::string Out =
        Mode == Ping ? serve::encodePing() : serve::encodeShutdown();
    std::string Payload;
    if (!serve::sendFrame(Fd, Out, &Err) ||
        !serve::recvFrame(Fd, Payload, &Err)) {
      std::fprintf(stderr, "validate_client: %s\n",
                   Err.empty() ? "server closed the connection" : Err.c_str());
      serve::closeFd(Fd);
      return 1;
    }
    std::string Op = serve::replyOp(Payload);
    bool Ok = (Mode == Ping && Op == "pong") || (Mode == Shutdown && Op == "ok");
    std::printf("%s\n", Payload.c_str());
    serve::closeFd(Fd);
    return Ok ? 0 : 1;
  }

  if (Mode == Stats) {
    std::map<std::string, uint64_t> Counters;
    std::map<std::string, double> Gauges;
    if (!fetchStats(Fd, Counters, Gauges)) {
      std::fprintf(stderr, "validate_client: stats request failed\n");
      serve::closeFd(Fd);
      return 1;
    }
    for (const auto &KV : Counters)
      std::printf("%s %llu\n", KV.first.c_str(),
                  static_cast<unsigned long long>(KV.second));
    for (const auto &KV : Gauges)
      std::printf("%s %s\n", KV.first.c_str(),
                  obs::jsonNumber(KV.second).c_str());
    serve::closeFd(Fd);
    return 0;
  }

  // Batch mode: the refinement corpus, --repeat times. Every repeat after
  // the first should be answered from the server's verdict cache.
  const std::vector<RefinementCase> &Cases = refinementCorpus();
  std::vector<serve::JobRequest> Jobs;
  for (uint64_t R = 0; R != Repeat; ++R)
    for (const RefinementCase &C : Cases) {
      serve::JobRequest J;
      J.Id = Jobs.size() + 1;
      J.Source = C.Src;
      J.Target = C.Tgt;
      J.Method = ValidationMethod::Advanced;
      J.StepBudget = C.StepBudget;
      Jobs.push_back(std::move(J));
    }

  auto Start = std::chrono::steady_clock::now();
  for (const serve::JobRequest &J : Jobs)
    if (!serve::sendFrame(Fd, serve::encodeJobRequest(J), &Err)) {
      std::fprintf(stderr, "validate_client: send failed: %s\n", Err.c_str());
      serve::closeFd(Fd);
      return 1;
    }

  std::map<uint64_t, serve::JobResult> Results;
  uint64_t DuplicateReplies = 0;
  std::string Payload;
  while (Results.size() < Jobs.size()) {
    if (!serve::recvFrame(Fd, Payload, &Err)) {
      std::fprintf(stderr,
                   "validate_client: connection lost after %zu/%zu replies"
                   "%s%s\n",
                   Results.size(), Jobs.size(), Err.empty() ? "" : ": ",
                   Err.c_str());
      break;
    }
    serve::JobResult R;
    if (!serve::parseJobResult(Payload, R, Err)) {
      std::fprintf(stderr, "validate_client: bad reply: %s\n", Err.c_str());
      continue;
    }
    if (!Results.emplace(R.Id, R).second)
      ++DuplicateReplies;
    if (!Quiet)
      std::printf("job %llu: %s%s%s%s\n",
                  static_cast<unsigned long long>(R.Id),
                  serve::jobStatusName(R.Status), R.CacheHit ? " (cached)" : "",
                  R.Detail.empty() ? "" : " - ", R.Detail.c_str());
  }
  double ElapsedSec = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - Start)
                          .count();

  uint64_t CacheHits = 0, Failed = 0;
  for (const auto &KV : Results) {
    CacheHits += KV.second.CacheHit;
    Failed += KV.second.Status == serve::JobStatus::Crash ||
              KV.second.Status == serve::JobStatus::Oom ||
              KV.second.Status == serve::JobStatus::Deadline;
  }
  double JobsPerSec =
      ElapsedSec > 0 ? static_cast<double>(Results.size()) / ElapsedSec : 0;
  double HitRate = Results.empty()
                       ? 0
                       : static_cast<double>(CacheHits) /
                             static_cast<double>(Results.size());
  std::fprintf(stderr,
               "validate_client: %zu/%zu replies, %llu cached, %llu failed, "
               "%.1f jobs/sec\n",
               Results.size(), Jobs.size(),
               static_cast<unsigned long long>(CacheHits),
               static_cast<unsigned long long>(Failed), JobsPerSec);

  if (!BenchOut.empty()) {
    std::string Json = "{\n  \"jobs\": " + std::to_string(Results.size()) +
                       ",\n  \"jobs_per_sec\": " + obs::jsonNumber(JobsPerSec) +
                       ",\n  \"cache_hit_rate\": " + obs::jsonNumber(HitRate) +
                       ",\n  \"failed\": " + std::to_string(Failed) +
                       ",\n  \"duplicate_replies\": " +
                       std::to_string(DuplicateReplies) + "\n}\n";
    if (!support::writeFileAtomic(BenchOut, Json, &Err)) {
      std::fprintf(stderr, "validate_client: %s\n", Err.c_str());
      serve::closeFd(Fd);
      return 1;
    }
  }

  serve::closeFd(Fd);
  if (ExpectComplete &&
      (Results.size() != Jobs.size() || DuplicateReplies != 0)) {
    std::fprintf(stderr,
                 "validate_client: coverage violation (%zu jobs, %zu "
                 "replies, %llu duplicates)\n",
                 Jobs.size(), Results.size(),
                 static_cast<unsigned long long>(DuplicateReplies));
    return 1;
  }
  return 0;
}

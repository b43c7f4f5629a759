//===- serve/Protocol.h - Validation-server message schema ------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JSON messages carried in wire frames (serve/Wire.h). Every frame is
/// one object with an `"op"` discriminator:
///
///   client -> server
///     {"op":"ping"}
///     {"op":"stats"}
///     {"op":"shutdown"}
///     {"op":"job", "id":N, "source":"...", ...}   one job of a batch
///
///   server -> client
///     {"op":"pong"}
///     {"op":"stats", ...counters/gauges...}
///     {"op":"ok"}                                  shutdown acknowledged
///     {"op":"result", "id":N, "status":"...", ...} one verdict per job
///     {"op":"error", "detail":"..."}               unparseable frame
///
/// A batch is simply N job frames on one connection; results come back on
/// the same connection in completion order (the `id` echo is the client's
/// correlation handle). Status strings form the failure taxonomy
/// documented in DESIGN.md: every submitted job gets exactly one of
/// ok / rejected / bounded / crash / oom / deadline / overloaded /
/// badrequest / shutdown.
///
/// Parsing is strict (obs::JsonValue): unknown ops and missing required
/// fields yield a BadRequest, never a default-initialized job.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_SERVE_PROTOCOL_H
#define PSEQ_SERVE_PROTOCOL_H

#include "opt/Validator.h"

#include <cstdint>
#include <map>
#include <string>

namespace pseq {
namespace serve {

/// Client-side request discriminator.
enum class RequestOp : uint8_t { Ping, Stats, Shutdown, Job, Invalid };

/// One validation job. Empty Target means "run the optimizer pipeline on
/// Source and validate every pass"; a non-empty Target means "validate
/// Source -> Target directly with Method".
struct JobRequest {
  uint64_t Id = 0;
  std::string Source;
  std::string Target;
  ValidationMethod Method = ValidationMethod::Advanced;
  unsigned StepBudget = 0;   ///< 0 = server default
  uint64_t DeadlineMs = 0;   ///< 0 = server default
  uint64_t MemMb = 0;        ///< 0 = server default
};

/// One parsed request frame.
struct Request {
  RequestOp Op = RequestOp::Invalid;
  JobRequest Job;       ///< meaningful when Op == Job
  std::string ParseErr; ///< meaningful when Op == Invalid
};

/// Job outcome statuses — the wire-visible failure taxonomy.
enum class JobStatus : uint8_t {
  Ok,         ///< validated (or pipeline fully validated)
  Rejected,   ///< checker rejected the transformation (a real verdict)
  Bounded,    ///< truncated by a budget; Cause names which
  Crash,      ///< worker died (signal/exception) even after retries
  Oom,        ///< worker exceeded its memory budget
  Deadline,   ///< job exceeded its deadline
  Overloaded, ///< shed at admission: queue past high-water mark
  BadRequest, ///< unparseable program / malformed request
  Shutdown,   ///< server stopped before the job ran
};

const char *jobStatusName(JobStatus S);

/// One job verdict, echoed with the request id.
struct JobResult {
  uint64_t Id = 0;
  JobStatus Status = JobStatus::BadRequest;
  std::string Detail;    ///< verdict text / counterexample / error
  std::string Cause;     ///< truncation cause name when Bounded
  std::string Lint;      ///< race-lint verdict of the source, when known
  unsigned Attempts = 1; ///< isolation attempts consumed (retries + 1)
  bool CacheHit = false; ///< replayed from the cross-request verdict cache
  double ElapsedMs = 0.0;
  uint64_t PeakRssKb = 0; ///< worker peak RSS (isolated jobs only)
  double UserMs = 0.0;    ///< worker user CPU (isolated jobs only)
  double SysMs = 0.0;     ///< worker system CPU (isolated jobs only)
  /// Worker minor page faults (isolated jobs only; not sent on the wire).
  uint64_t MinorFaults = 0;
};

// --- encoding ---------------------------------------------------------

std::string encodePing();
std::string encodeStatsRequest();
std::string encodeShutdown();
std::string encodeJobRequest(const JobRequest &J);

std::string encodePong();
std::string encodeShutdownAck();
std::string encodeErrorReply(const std::string &Detail);
std::string encodeJobResult(const JobResult &R);
/// Stats reply: every entry of \p Counters and \p Gauges becomes a field.
std::string encodeStatsReply(const std::map<std::string, uint64_t> &Counters,
                             const std::map<std::string, double> &Gauges);

// --- decoding ---------------------------------------------------------

/// Parses a client->server frame. Never fails hard: a malformed payload
/// comes back as Op == Invalid with ParseErr set.
Request parseRequest(const std::string &Payload);

/// Parses a server->client result frame into \p R; \returns false (with
/// \p Err) for anything that is not a well-formed result.
bool parseJobResult(const std::string &Payload, JobResult &R,
                    std::string &Err);

/// \returns the "op" field of a reply payload, or "" when unparseable.
std::string replyOp(const std::string &Payload);

} // namespace serve
} // namespace pseq

#endif // PSEQ_SERVE_PROTOCOL_H

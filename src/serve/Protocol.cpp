//===- serve/Protocol.cpp - Validation-server message schema --------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "obs/JsonValue.h"

using namespace pseq;
using namespace pseq::serve;

const char *pseq::serve::jobStatusName(JobStatus S) {
  switch (S) {
  case JobStatus::Ok:
    return "ok";
  case JobStatus::Rejected:
    return "rejected";
  case JobStatus::Bounded:
    return "bounded";
  case JobStatus::Crash:
    return "crash";
  case JobStatus::Oom:
    return "oom";
  case JobStatus::Deadline:
    return "deadline";
  case JobStatus::Overloaded:
    return "overloaded";
  case JobStatus::BadRequest:
    return "badrequest";
  case JobStatus::Shutdown:
    return "shutdown";
  }
  return "unknown";
}

namespace {

JobStatus statusFromName(const std::string &Name, bool &Ok) {
  Ok = true;
  for (int I = 0; I <= static_cast<int>(JobStatus::Shutdown); ++I)
    if (Name == jobStatusName(static_cast<JobStatus>(I)))
      return static_cast<JobStatus>(I);
  Ok = false;
  return JobStatus::BadRequest;
}

void appendField(std::string &Out, const char *Key, const std::string &V) {
  Out += "\"";
  Out += Key;
  Out += "\":\"";
  Out += obs::jsonEscape(V);
  Out += "\"";
}

void appendField(std::string &Out, const char *Key, uint64_t V) {
  Out += "\"";
  Out += Key;
  Out += "\":";
  Out += std::to_string(V);
}

void appendField(std::string &Out, const char *Key, double V) {
  Out += "\"";
  Out += Key;
  Out += "\":";
  Out += obs::jsonNumber(V);
}

/// Reads an optional non-negative integer field; false only on bad type.
bool readUnsigned(const obs::JsonValue &Obj, const char *Key, uint64_t &V) {
  const obs::JsonValue *F = Obj.field(Key);
  if (!F)
    return true;
  if (!F->isNumber() || F->asNumber() < 0)
    return false;
  V = static_cast<uint64_t>(F->asNumber());
  return true;
}

} // namespace

std::string pseq::serve::encodePing() { return "{\"op\":\"ping\"}"; }

std::string pseq::serve::encodeStatsRequest() {
  return "{\"op\":\"stats\"}";
}

std::string pseq::serve::encodeShutdown() {
  return "{\"op\":\"shutdown\"}";
}

std::string pseq::serve::encodePong() { return "{\"op\":\"pong\"}"; }

std::string pseq::serve::encodeShutdownAck() { return "{\"op\":\"ok\"}"; }

std::string pseq::serve::encodeErrorReply(const std::string &Detail) {
  std::string Out = "{\"op\":\"error\",";
  appendField(Out, "detail", Detail);
  Out += "}";
  return Out;
}

std::string pseq::serve::encodeJobRequest(const JobRequest &J) {
  std::string Out = "{\"op\":\"job\",";
  appendField(Out, "id", J.Id);
  Out += ",";
  appendField(Out, "source", J.Source);
  if (!J.Target.empty()) {
    Out += ",";
    appendField(Out, "target", J.Target);
  }
  Out += ",";
  appendField(Out, "method", std::string(validationMethodName(J.Method)));
  if (J.StepBudget) {
    Out += ",";
    appendField(Out, "step_budget", static_cast<uint64_t>(J.StepBudget));
  }
  if (J.DeadlineMs) {
    Out += ",";
    appendField(Out, "deadline_ms", J.DeadlineMs);
  }
  if (J.MemMb) {
    Out += ",";
    appendField(Out, "mem_mb", J.MemMb);
  }
  Out += "}";
  return Out;
}

std::string pseq::serve::encodeJobResult(const JobResult &R) {
  std::string Out = "{\"op\":\"result\",";
  appendField(Out, "id", R.Id);
  Out += ",";
  appendField(Out, "status", std::string(jobStatusName(R.Status)));
  if (!R.Detail.empty()) {
    Out += ",";
    appendField(Out, "detail", R.Detail);
  }
  if (!R.Cause.empty()) {
    Out += ",";
    appendField(Out, "cause", R.Cause);
  }
  if (!R.Lint.empty()) {
    Out += ",";
    appendField(Out, "lint", R.Lint);
  }
  Out += ",";
  appendField(Out, "attempts", static_cast<uint64_t>(R.Attempts));
  Out += ",\"cache_hit\":";
  Out += R.CacheHit ? "true" : "false";
  Out += ",";
  appendField(Out, "elapsed_ms", R.ElapsedMs);
  if (R.PeakRssKb) {
    Out += ",";
    appendField(Out, "peak_rss_kb", R.PeakRssKb);
  }
  if (R.UserMs > 0) {
    Out += ",";
    appendField(Out, "user_ms", R.UserMs);
  }
  if (R.SysMs > 0) {
    Out += ",";
    appendField(Out, "sys_ms", R.SysMs);
  }
  Out += "}";
  return Out;
}

std::string
pseq::serve::encodeStatsReply(const std::map<std::string, uint64_t> &Counters,
                              const std::map<std::string, double> &Gauges) {
  std::string Out = "{\"op\":\"stats\",\"counters\":{";
  bool First = true;
  for (const auto &KV : Counters) {
    if (!First)
      Out += ",";
    First = false;
    appendField(Out, KV.first.c_str(), KV.second);
  }
  Out += "},\"gauges\":{";
  First = true;
  for (const auto &KV : Gauges) {
    if (!First)
      Out += ",";
    First = false;
    appendField(Out, KV.first.c_str(), KV.second);
  }
  Out += "}}";
  return Out;
}

Request pseq::serve::parseRequest(const std::string &Payload) {
  Request R;
  obs::JsonValue V;
  std::string Err;
  if (!obs::JsonValue::parse(Payload, V, &Err) || !V.isObject()) {
    R.ParseErr = Err.empty() ? "frame is not a JSON object" : Err;
    return R;
  }
  const obs::JsonValue *Op = V.field("op");
  if (!Op || !Op->isString()) {
    R.ParseErr = "missing \"op\" field";
    return R;
  }
  const std::string &OpS = Op->asString();
  if (OpS == "ping") {
    R.Op = RequestOp::Ping;
    return R;
  }
  if (OpS == "stats") {
    R.Op = RequestOp::Stats;
    return R;
  }
  if (OpS == "shutdown") {
    R.Op = RequestOp::Shutdown;
    return R;
  }
  if (OpS != "job") {
    R.ParseErr = "unknown op \"" + OpS + "\"";
    return R;
  }

  const obs::JsonValue *Src = V.field("source");
  if (!Src || !Src->isString() || Src->asString().empty()) {
    R.ParseErr = "job without a \"source\" program";
    return R;
  }
  R.Job.Source = Src->asString();
  if (const obs::JsonValue *Tgt = V.field("target")) {
    if (!Tgt->isString()) {
      R.ParseErr = "\"target\" must be a string";
      return R;
    }
    R.Job.Target = Tgt->asString();
  }
  if (const obs::JsonValue *M = V.field("method")) {
    // Psna is pipeline-internal, not requestable per job.
    std::optional<ValidationMethod> Method;
    if (M->isString())
      Method = parseValidationMethodMaybe(M->asString());
    if (!Method) {
      R.ParseErr = "unknown validation method";
      return R;
    }
    R.Job.Method = *Method;
  }
  uint64_t Id = 0, Step = 0;
  if (!readUnsigned(V, "id", Id) || !readUnsigned(V, "step_budget", Step) ||
      !readUnsigned(V, "deadline_ms", R.Job.DeadlineMs) ||
      !readUnsigned(V, "mem_mb", R.Job.MemMb)) {
    R.ParseErr = "numeric field with a non-numeric or negative value";
    return R;
  }
  R.Job.Id = Id;
  R.Job.StepBudget = static_cast<unsigned>(Step);
  R.Op = RequestOp::Job;
  return R;
}

bool pseq::serve::parseJobResult(const std::string &Payload, JobResult &R,
                                 std::string &Err) {
  obs::JsonValue V;
  if (!obs::JsonValue::parse(Payload, V, &Err) || !V.isObject()) {
    if (Err.empty())
      Err = "result frame is not a JSON object";
    return false;
  }
  const obs::JsonValue *Op = V.field("op");
  if (!Op || !Op->isString() || Op->asString() != "result") {
    Err = "not a result frame";
    return false;
  }
  const obs::JsonValue *Status = V.field("status");
  bool Ok = Status && Status->isString();
  if (Ok)
    R.Status = statusFromName(Status->asString(), Ok);
  if (!Ok) {
    Err = "result frame with missing or unknown status";
    return false;
  }
  uint64_t Attempts = 1;
  if (!readUnsigned(V, "id", R.Id) ||
      !readUnsigned(V, "attempts", Attempts) ||
      !readUnsigned(V, "peak_rss_kb", R.PeakRssKb)) {
    Err = "result frame with malformed numeric field";
    return false;
  }
  R.Attempts = static_cast<unsigned>(Attempts);
  if (const obs::JsonValue *F = V.field("detail"))
    R.Detail = F->isString() ? F->asString() : "";
  if (const obs::JsonValue *F = V.field("cause"))
    R.Cause = F->isString() ? F->asString() : "";
  if (const obs::JsonValue *F = V.field("lint"))
    R.Lint = F->isString() ? F->asString() : "";
  if (const obs::JsonValue *F = V.field("cache_hit"))
    R.CacheHit = F->isBool() && F->asBool();
  if (const obs::JsonValue *F = V.field("elapsed_ms"))
    R.ElapsedMs = F->isNumber() ? F->asNumber() : 0.0;
  if (const obs::JsonValue *F = V.field("user_ms"))
    R.UserMs = F->isNumber() ? F->asNumber() : 0.0;
  if (const obs::JsonValue *F = V.field("sys_ms"))
    R.SysMs = F->isNumber() ? F->asNumber() : 0.0;
  return true;
}

std::string pseq::serve::replyOp(const std::string &Payload) {
  obs::JsonValue V;
  if (!obs::JsonValue::parse(Payload, V) || !V.isObject())
    return "";
  const obs::JsonValue *Op = V.field("op");
  return Op && Op->isString() ? Op->asString() : "";
}

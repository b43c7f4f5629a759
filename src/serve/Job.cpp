//===- serve/Job.cpp - One validation job, run to a verdict ---------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "serve/Job.h"

#include "analysis/RaceLint.h"
#include "guard/Guard.h"
#include "guard/Isolate.h"
#include "lang/Parser.h"
#include "opt/Pipeline.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <thread>
#include <unistd.h>

using namespace pseq;
using namespace pseq::serve;

namespace {

/// Builds the pipeline options a pipeline job runs under (shared between
/// execution and fingerprinting, so the cache key and the run can never
/// disagree about the configuration).
PipelineOptions pipelineOptionsFor(const JobRequest &Req,
                                   const JobPolicy &Policy) {
  PipelineOptions Opts;
  Opts.Validate = true;
  Opts.Method = Req.Method;
  Opts.Cfg.StepBudget = Req.StepBudget ? Req.StepBudget
                                       : Policy.DefaultStepBudget;
  Opts.EnableConstProp = true;
  Opts.NumThreads = 1; // one job = one worker; parallelism is across jobs
  Opts.ShrinkFailures = false; // a service reports, the CLI investigates
  return Opts;
}

memo::Fp128 lintKey(const std::string &Source) {
  memo::Fp128 F = memo::fpSeed(0x70736571'6c696e74ULL); // "pseq lint"
  memo::fpMixBytes(F, Source.data(), Source.size());
  return F.sealed();
}

/// Which outcomes are safe to replay from the cross-request cache: only
/// those that are pure functions of (programs, work budgets). Deadline and
/// OOM depend on the machine and the moment; crashes are transient.
bool cacheable(const JobResult &R) {
  switch (R.Status) {
  case JobStatus::Ok:
  case JobStatus::Rejected:
    return true;
  case JobStatus::Bounded:
    return R.Cause == "step-budget" || R.Cause == "behavior-cap" ||
           R.Cause == "state-budget" || R.Cause == "cert-budget";
  default:
    return false;
  }
}

/// The actual validation work, run inside the isolated child (or inline
/// when isolation is off/unsupported). Fills only the verdict fields of
/// \p R; attempts/rusage/timing belong to the caller.
void runJobInner(const JobRequest &Req, const JobPolicy &Policy,
                 const std::string &KnownLint, JobResult &R) {
  ParseResult Src = parseProgram(Req.Source);
  if (!Src.ok()) {
    R.Status = JobStatus::BadRequest;
    R.Detail = "source: " + Src.Error;
    return;
  }

  if (!KnownLint.empty()) {
    R.Lint = KnownLint;
  } else {
    analysis::RaceReport Lint = analysis::analyzeRaces(*Src.Prog, nullptr);
    R.Lint = analysis::raceVerdictName(Lint.Verdict);
  }

  uint64_t DeadlineMs =
      Req.DeadlineMs ? Req.DeadlineMs : Policy.DefaultDeadlineMs;
  uint64_t MemMb = Req.MemMb ? Req.MemMb : Policy.DefaultMemMb;
  guard::ResourceGuard Guard;
  Guard.setDeadlineInMs(DeadlineMs);
  Guard.setMemLimitBytes(MemMb << 20);

  if (!Req.Target.empty()) {
    ParseResult Tgt = parseProgram(Req.Target);
    if (!Tgt.ok()) {
      R.Status = JobStatus::BadRequest;
      R.Detail = "target: " + Tgt.Error;
      return;
    }
    SeqConfig Cfg;
    Cfg.StepBudget = Req.StepBudget ? Req.StepBudget
                                    : Policy.DefaultStepBudget;
    Cfg.NumThreads = 1;
    Cfg.Lint = false; // linted above (and possibly memoized)
    Cfg.Guard = &Guard;
    ValidationResult V =
        validateTransform(*Src.Prog, *Tgt.Prog, Cfg, Req.Method);
    if (V.Bounded) {
      R.Status = V.Cause == TruncationCause::Deadline ? JobStatus::Deadline
                                                      : JobStatus::Bounded;
      R.Cause = truncationCauseName(V.Cause);
      R.Detail = V.Counterexample;
    } else if (V.Ok) {
      R.Status = JobStatus::Ok;
      R.Detail = "refinement holds (" +
                 std::string(validationMethodName(V.MethodUsed)) + ", " +
                 std::to_string(V.StatesExplored) + " states)";
    } else {
      R.Status = JobStatus::Rejected;
      R.Detail = V.Counterexample;
    }
    return;
  }

  // Pipeline job: optimize Source and validate every pass.
  PipelineOptions Opts = pipelineOptionsFor(Req, Policy);
  Opts.Guard = &Guard;
  PipelineResult P = runPipeline(*Src.Prog, Opts);
  TruncationCause Bounded = TruncationCause::None;
  std::string Failed;
  for (const PassReport &PR : P.Reports) {
    if (!PR.Error.empty() && Failed.empty())
      Failed = PR.Name + ": " + PR.Error;
    if (PR.ValidationBounded && Bounded == TruncationCause::None)
      Bounded = PR.ValidationCause;
  }
  if (!Failed.empty()) {
    R.Status = JobStatus::Rejected;
    R.Detail = Failed;
  } else if (Bounded != TruncationCause::None) {
    R.Status = Bounded == TruncationCause::Deadline ? JobStatus::Deadline
                                                    : JobStatus::Bounded;
    R.Cause = truncationCauseName(Bounded);
    R.Detail = "pipeline validation truncated";
  } else {
    R.Status = JobStatus::Ok;
    R.Detail = "pipeline validated (" + std::to_string(P.Reports.size()) +
               " passes, " + std::to_string(P.TotalRewrites) + " rewrites)";
  }
}

/// Deterministic chaos decision: roughly one in three jobs has its first
/// attempt killed from inside the child, mid-work.
bool chaosKillsThisJob(const memo::Fp128 &Fp, uint64_t Seed) {
  memo::Fp128 F = memo::fpSeed(0x70736571'63686173ULL); // "pseq chas"
  memo::fpMix(F, Seed);
  F = memo::fpCombine(F, Fp);
  return F.Lo % 3 == 0;
}

/// \p Req with \p Policy's defaults filled in: an isolated attempt then
/// runs under `NoDefaults` and reaches exactly the verdict the worker's
/// policy would.
JobRequest resolvedRequest(const JobRequest &Req, const JobPolicy &Policy) {
  JobRequest R = Req;
  if (!R.StepBudget)
    R.StepBudget = Policy.DefaultStepBudget;
  if (!R.DeadlineMs)
    R.DeadlineMs = Policy.DefaultDeadlineMs;
  if (!R.MemMb)
    R.MemMb = Policy.DefaultMemMb;
  return R;
}

const JobPolicy NoDefaults = [] {
  JobPolicy P;
  P.DefaultStepBudget = 0;
  P.DefaultDeadlineMs = 0;
  P.DefaultMemMb = 0;
  return P;
}();

bool writeAll(int Fd, const std::string &Bytes) {
  size_t Off = 0;
  while (Off < Bytes.size()) {
    ssize_t N = write(Fd, Bytes.data() + Off, Bytes.size() - Off);
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

} // namespace

int pseq::serve::runIsolatedJob(const std::string &In, int OutFd) {
  // Layout: one chaos byte, the resolved request's JSON (one line), a
  // newline, then the known lint verdict (possibly empty).
  size_t Nl = In.find('\n');
  if (Nl == std::string::npos || Nl == 0)
    return 1;
  Request Req = parseRequest(In.substr(1, Nl - 1));
  if (Req.Op != RequestOp::Job)
    return 1;
  if (In[0] == '1') {
    // Chaos: die exactly the way a SIGKILLed worker dies, after the job
    // has started but before any result is written.
    raise(SIGKILL);
  }
  JobResult Inner;
  runJobInner(Req.Job, NoDefaults, In.substr(Nl + 1), Inner);
  return writeAll(OutFd, encodeJobResult(Inner)) ? 0 : 1;
}

memo::Fp128 pseq::serve::jobFingerprint(const JobRequest &Req,
                                        const JobPolicy &Policy) {
  memo::Fp128 F = memo::fpSeed(0x70736571'73727665ULL); // "pseq srve"
  memo::fpMixBytes(F, Req.Source.data(), Req.Source.size());
  memo::fpMixBytes(F, Req.Target.data(), Req.Target.size());
  memo::fpMix(F, Req.StepBudget ? Req.StepBudget : Policy.DefaultStepBudget);
  memo::fpMix(F, static_cast<uint64_t>(Req.Method));
  if (Req.Target.empty())
    // Pipeline jobs additionally depend on the pass configuration; use the
    // same salt runPipeline feeds its memo keys so "same configuration"
    // means the same thing at both cache layers.
    memo::fpMix(F, pipelineConfigSalt(pipelineOptionsFor(Req, Policy)));
  return F.sealed();
}

bool pseq::serve::cachedVerdict(const JobRequest &Req, const memo::Fp128 &Fp,
                                VerdictCache &Cache, bool CountMiss,
                                JobResult &R) {
  auto Start = std::chrono::steady_clock::now();
  std::string Cached, Err;
  if (!Cache.lookup(Fp, Cached, CountMiss) || !parseJobResult(Cached, R, Err))
    return false;
  R.Id = Req.Id;
  R.CacheHit = true;
  R.Attempts = 0;
  // The stored result carries the rusage of the run that produced it; no
  // child ran for this reply.
  R.PeakRssKb = 0;
  R.UserMs = 0.0;
  R.SysMs = 0.0;
  R.MinorFaults = 0;
  R.ElapsedMs = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  return true;
}

JobResult pseq::serve::runJob(const JobRequest &Req, const JobPolicy &Policy,
                              const JobDeps &Deps, JobTrace &Trace) {
  return runJob(Req, jobFingerprint(Req, Policy), Policy, Deps, Trace);
}

JobResult pseq::serve::runJob(const JobRequest &Req, const memo::Fp128 &Fp,
                              const JobPolicy &Policy, const JobDeps &Deps,
                              JobTrace &Trace) {
  auto Start = std::chrono::steady_clock::now();
  auto elapsedMs = [&] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - Start)
        .count();
  };
  auto finish = [&](JobResult R) {
    R.Id = Req.Id;
    R.ElapsedMs = elapsedMs();
    return R;
  };

  // 1. Response cache. The server has probed it at admission already; this
  // probe answers direct callers, and a job whose duplicate finished while
  // it was queued. A hit is timed as at admission: the lookup alone.
  JobResult Cached;
  if (Deps.Cache && cachedVerdict(Req, Fp, *Deps.Cache, true, Cached))
    return Cached;

  // 2. Lint memo: the race verdict depends only on the source program, so
  // it is shared across jobs that differ in target/budgets/method.
  std::string KnownLint;
  if (Deps.Memo) {
    auto Hit = Deps.Memo->lookupAs<std::string>(
        memo::MemoContext::Table::ServeVerdicts, lintKey(Req.Source));
    if (Hit) {
      KnownLint = *Hit;
      Deps.Memo->noteHit();
    } else {
      Deps.Memo->noteMiss();
    }
  }

  uint64_t DeadlineMs =
      Req.DeadlineMs ? Req.DeadlineMs : Policy.DefaultDeadlineMs;
  uint64_t MemMb = Req.MemMb ? Req.MemMb : Policy.DefaultMemMb;

  JobResult R;
  bool HaveVerdict = false;
  unsigned Attempt = 0;
  const unsigned MaxAttempts = Policy.MaxAttempts ? Policy.MaxAttempts : 1;
  const bool Isolated = Deps.Isolator != nullptr;
  // What every attempt sends runIsolatedJob, after its chaos byte.
  const std::string AttemptIn =
      Isolated ? encodeJobRequest(resolvedRequest(Req, Policy)) + "\n" +
                     KnownLint
               : std::string();

  for (; Attempt != MaxAttempts && !HaveVerdict; ++Attempt) {
    if (Attempt) {
      Trace.Retries++;
      uint64_t Backoff = Policy.BackoffBaseMs << (Attempt - 1);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::min(Backoff, Policy.BackoffCapMs)));
    }

    if (!Isolated) {
      R = JobResult();
      runJobInner(Req, Policy, KnownLint, R);
      HaveVerdict = true;
      break;
    }

    const bool InjectKill =
        Policy.Chaos && Attempt == 0 && chaosKillsThisJob(Fp, Policy.ChaosSeed);
    if (InjectKill)
      Trace.ChaosInjected = true;

    guard::IsolateLimits Limits;
    // Headroom over the in-child guard: the guard's deadline produces the
    // honest bounded verdict; the parent's SIGKILL and the rlimits are the
    // backstops for a child too wedged to honor it.
    Limits.WallMs = DeadlineMs + 1000;
    Limits.CpuSeconds = DeadlineMs / 1000 + 2;
    Limits.MemBytes = (MemMb << 20) * 4 + (256u << 20);

    std::string Payload;
    guard::IsolateResult IR = Deps.Isolator->run(
        (InjectKill ? "1" : "0") + AttemptIn, Limits, Payload);

    R = JobResult();
    R.PeakRssKb = IR.PeakRssKb;
    R.UserMs = IR.UserMs;
    R.SysMs = IR.SysMs;
    R.MinorFaults = IR.MinorFaults;

    switch (IR.Status) {
    case guard::IsolateStatus::Ok: {
      std::string Err;
      JobResult Parsed;
      if (parseJobResult(Payload, Parsed, Err)) {
        Parsed.PeakRssKb = R.PeakRssKb;
        Parsed.UserMs = R.UserMs;
        Parsed.SysMs = R.SysMs;
        Parsed.MinorFaults = R.MinorFaults;
        R = Parsed;
        HaveVerdict = true;
      }
      // else: child claimed success but its payload is garbage — treat as
      // a crash and retry.
      break;
    }
    case guard::IsolateStatus::Deadline:
      R.Status = JobStatus::Deadline;
      R.Cause = truncationCauseName(TruncationCause::Deadline);
      R.Detail = "worker exceeded its wall/CPU budget";
      HaveVerdict = true; // retrying a timeout would just time out again
      break;
    case guard::IsolateStatus::Oom:
      R.Status = JobStatus::Oom;
      R.Cause = truncationCauseName(TruncationCause::MemBudget);
      R.Detail = "worker exhausted its memory budget";
      HaveVerdict = true;
      break;
    case guard::IsolateStatus::Fail:
    case guard::IsolateStatus::Crash:
      // Transient until proven otherwise: retry with backoff. The last
      // attempt's classification becomes the structured failure verdict.
      R.Status = JobStatus::Crash;
      R.Detail = IR.Signal
                     ? "worker killed by signal " + std::to_string(IR.Signal)
                     : "worker exited with code " +
                           std::to_string(IR.ExitCode);
      break;
    case guard::IsolateStatus::Unsupported:
      // The helper could not be spawned (fork or socketpair failed, or no
      // fork on this host): degrade to in-process.
      R = JobResult();
      runJobInner(Req, Policy, KnownLint, R);
      HaveVerdict = true;
      break;
    }
  }
  R.Attempts = Attempt;

  // 3. Fold fresh knowledge back into the caches (the child cannot — it
  // runs in its own address space and may die at any point).
  if (Deps.Memo && KnownLint.empty() && !R.Lint.empty())
    Deps.Memo->insertAs<std::string>(
        memo::MemoContext::Table::ServeVerdicts, lintKey(Req.Source),
        std::make_shared<const std::string>(R.Lint));
  if (Deps.Cache && cacheable(R)) {
    JobResult ToStore = R;
    ToStore.Id = 0; // the key is the job content, not one request's id
    Deps.Cache->insert(Fp, encodeJobResult(ToStore));
    Trace.CacheStored = true;
  }

  return finish(R);
}

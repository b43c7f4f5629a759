//===- serve/Job.h - One validation job, run to a verdict -------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes one JobRequest to exactly one JobResult, whatever happens.
/// The invariant this module owes the server (and the chaos test asserts):
/// `runJob` always returns — a verdict, a budget-bounded verdict, or a
/// classified failure — and never throws, hangs, or crashes the caller.
///
/// The pipeline per job:
///   1. cache probe (VerdictCache, deterministic outcomes only); the
///      server runs this step at admission, on the connection's reader
///      thread, so a hit takes no queue slot and waits for no worker, and
///      hands the fingerprint it computed there to the worker's runJob
///   2. lint memo probe (MemoContext::ServeVerdicts, keyed by source only)
///   3. up to MaxAttempts isolated runs (a fresh child of the worker's
///      guard::ForkServer helper, under rlimits + pipe capture), with
///      capped exponential backoff between attempts;
///      crashes retry, resource verdicts (deadline/oom) do not — they are
///      deterministic enough that a retry would just burn the budget again
///   4. classification of whatever came back, rusage included
///
/// Chaos mode deterministically SIGKILLs a subset of first attempts from
/// inside the child (keyed by job fingerprint and seed), so the retry path
/// is exercised on every chaos run and the job still converges to its real
/// verdict on attempt two — making "exactly one verdict per job, crashes
/// included" a testable property rather than a hope.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_SERVE_JOB_H
#define PSEQ_SERVE_JOB_H

#include "serve/Protocol.h"
#include "serve/VerdictCache.h"

namespace pseq {

namespace guard {
class ForkServer;
}

namespace serve {

/// Server-level execution policy applied to every job.
struct JobPolicy {
  unsigned DefaultStepBudget = 48;
  uint64_t DefaultDeadlineMs = 5000;
  uint64_t DefaultMemMb = 512;
  unsigned MaxAttempts = 3;    ///< isolated tries per job (>= 1)
  uint64_t BackoffBaseMs = 10; ///< sleep before retry k: base << k ...
  uint64_t BackoffCapMs = 200; ///< ... capped here
  bool Isolate = true;         ///< server workers get fork servers (false:
                               ///< jobs run in-process)
  bool Chaos = false;          ///< inject deterministic worker kills
  uint64_t ChaosSeed = 1;
};

/// Borrowed caches and the worker's fork server (any may be null: that
/// feature is then off).
struct JobDeps {
  memo::MemoContext *Memo = nullptr; ///< ServeVerdicts lint table
  VerdictCache *Cache = nullptr;     ///< cross-request response cache
  /// The worker's fork server, built around `runIsolatedJob`. Jobs are
  /// isolated only through it: with none they run in-process.
  guard::ForkServer *Isolator = nullptr;
};

/// Per-job observations the server folds into its tallies (JobResult only
/// carries the wire-visible fields).
struct JobTrace {
  bool ChaosInjected = false;
  unsigned Retries = 0;
  bool CacheStored = false;
};

/// Cache key for a job: source/target bytes, step budget, method, and the
/// pipeline config salt for pipeline jobs — everything that can change a
/// deterministic verdict, nothing that only changes timing.
memo::Fp128 jobFingerprint(const JobRequest &Req, const JobPolicy &Policy);

/// The body of every isolated attempt, for a guard::ForkServer: decodes
/// what `runJob` sends (the chaos flag, the known lint verdict, and the
/// request with the policy's defaults filled in), runs the job, and writes
/// its encoded JobResult to \p OutFd. Nonzero when \p In is malformed or
/// the write fails.
int runIsolatedJob(const std::string &In, int OutFd);

/// Step 1 of the pipeline: when \p Cache holds a verdict for \p Req's
/// fingerprint \p Fp — a deterministic verdict already reached for the
/// same programs, budgets and method, possibly by an earlier server
/// process via the disk snapshot — fills \p R with it as \p Req's reply
/// (CacheHit, no attempts, no child rusage, ElapsedMs the lookup's own
/// time, whoever probes) and returns true. \p CountMiss as in VerdictCache::lookup.
bool cachedVerdict(const JobRequest &Req, const memo::Fp128 &Fp,
                   VerdictCache &Cache, bool CountMiss, JobResult &R);

/// Runs \p Req under \p Policy. Total: always produces a JobResult with
/// one of the taxonomy statuses (never Overloaded/Shutdown — those are
/// admission/drain decisions made by the server before a job gets here).
JobResult runJob(const JobRequest &Req, const JobPolicy &Policy,
                 const JobDeps &Deps, JobTrace &Trace);

/// `runJob` for a caller that already holds \p Req's jobFingerprint \p Fp
/// (the server computes it once, at admission).
JobResult runJob(const JobRequest &Req, const memo::Fp128 &Fp,
                 const JobPolicy &Policy, const JobDeps &Deps,
                 JobTrace &Trace);

} // namespace serve
} // namespace pseq

#endif // PSEQ_SERVE_JOB_H

//===- guard/Isolate.h - Fork-based crash isolation -------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-level isolation for untrusted work items (fuzzing, third-party
/// programs). `runIsolated` forks, applies rlimits (CPU seconds, address
/// space) in the child, runs the body, and classifies how the child died:
/// a clean verdict exit, a deadline (wall or CPU), memory exhaustion, or a
/// crash signal. The parent survives anything the child does, so one
/// pathological input cannot take down a whole campaign.
///
/// `ForkServer` runs the same one-shot children, but forks them from a
/// small single-threaded helper process instead of from the caller, so a
/// multi-threaded caller's pages are not write-protected by every job's
/// fork and its other threads never stall on one; and the helper forks
/// each job's child ahead of time, so the fork is off the job's path.
///
/// On non-POSIX hosts (and when explicitly disabled) the isolation status
/// is `Unsupported` and callers fall back to in-process execution.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_GUARD_ISOLATE_H
#define PSEQ_GUARD_ISOLATE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

namespace pseq {
namespace guard {

/// True when the binary is built under ASan/TSan: address-space rlimits
/// would kill the sanitizer's shadow mappings, so `runIsolated` skips
/// RLIMIT_AS (wall/CPU limits still apply).
bool underSanitizer();

/// Reserved child exit codes. The child's body maps resource failures onto
/// these so the parent can classify them without shared memory: a caught
/// std::bad_alloc exits with `IsolateOomExit`, any other uncaught
/// exception with `IsolateExceptionExit`.
inline constexpr int IsolateOomExit = 113;
inline constexpr int IsolateExceptionExit = 114;

/// Resource limits applied to the isolated child. Zero means unlimited.
struct IsolateLimits {
  uint64_t WallMs = 0;     ///< wall-clock timeout enforced by the parent
  uint64_t CpuSeconds = 0; ///< RLIMIT_CPU in the child
  uint64_t MemBytes = 0;   ///< RLIMIT_AS in the child (skipped under sanitizers)
};

/// How the isolated child finished.
enum class IsolateStatus : uint8_t {
  Ok,          ///< exited 0
  Fail,        ///< exited nonzero (a verdict, not a malfunction)
  Deadline,    ///< wall timeout (parent SIGKILL) or CPU limit (SIGXCPU)
  Oom,         ///< address-space limit hit (IsolateOomExit)
  Crash,       ///< fatal signal (SIGSEGV, SIGABRT, ...) or uncaught exception
  Unsupported, ///< no fork() on this host; body was not run
};

const char *isolateStatusName(IsolateStatus S);

/// Outcome of one isolated run. Beyond the classification, the parent
/// captures the child's rusage at reap time, so even a SIGKILLed or
/// OOM-crashed worker reports how much it actually consumed — the server's
/// `/stats` and campaign telemetry surface these without any cooperation
/// from the (possibly hostile) child.
struct IsolateResult {
  IsolateStatus Status = IsolateStatus::Unsupported;
  int ExitCode = -1;      ///< child exit code when Ok/Fail/Oom
  int Signal = 0;         ///< terminating signal when Crash/Deadline
  double ElapsedMs = 0.0; ///< parent-measured wall time
  uint64_t PeakRssKb = 0; ///< child peak resident set (ru_maxrss), KiB
  double UserMs = 0.0;    ///< child user CPU time (ru_utime)
  double SysMs = 0.0;     ///< child system CPU time (ru_stime)
  uint64_t MinorFaults = 0; ///< child minor page faults (ru_minflt)
};

/// True when this host can fork-isolate (POSIX).
bool isolationSupported();

/// Runs \p Body in a forked child under \p Limits and reports how it died.
/// The body's return value becomes the child's exit code (0 = Ok). The
/// child never returns to the caller's code: it exits via _Exit, skipping
/// static destructors (safe because the child shares no external state).
/// Spawn no threads before calling this in a loop — forked children only
/// retain the calling thread.
IsolateResult runIsolated(const std::function<int()> &Body,
                          const IsolateLimits &Limits);

/// A helper process that forks isolated children on the caller's behalf.
///
/// The helper is forked from the caller on the first `run()` and serves
/// one request at a time over a socketpair. It keeps exactly one spare
/// child, forked ahead of time and blocked reading a request pipe. A
/// request's limits and input go down the spare's pipe; the wall clock
/// starts at that delivery; the helper then forks the next spare while
/// the job runs, waits for the job as `runIsolated` does (pidfd, wall
/// deadline, wait4 rusage) while draining the job's capture pipe, and
/// sends back the IsolateResult and the captured output. The spare applies
/// its rlimits and resets its signals only once it has its request, so
/// every job still runs in a fresh process under its own rlimits, wall
/// deadline, pipe capture and rusage classification; only the moment of
/// the fork moves. A spare found dead at delivery is reaped and replaced
/// without costing its job anything.
///
/// The helper closes every descriptor it inherited except its channel
/// (and stdio), ignores SIGINT/SIGTERM/SIGPIPE, and on EOF on the channel
/// retires its spare and exits, so it never outlives the caller's end of
/// the channel. A spare holds only its two pipe ends. Jobs get
/// `runIsolated`'s default dispositions back and, on Linux, the job and
/// the spare are SIGKILLed when the helper dies. If the helper dies or
/// does not answer within `WallMs` + 1 s, `run()` reports `Crash`, reaps
/// it, and the next `run()` spawns a fresh one.
///
/// Not thread-safe: one caller thread per ForkServer (a server owns one per
/// worker). As with `runIsolated`, the body must not take a lock another
/// thread of the caller may hold: the helper inherits the caller's memory
/// as it was at the spawn, locks included.
class ForkServer {
public:
  /// The child's body: the request input and the capture pipe's write end.
  /// The return value becomes the child's exit code, as in `runIsolated`.
  using Body = std::function<int(const std::string &In, int OutFd)>;

  explicit ForkServer(Body Fn);
  /// Closes the channel and reaps the helper (which reaps its spare and
  /// exits on EOF).
  ~ForkServer();

  ForkServer(const ForkServer &) = delete;
  ForkServer &operator=(const ForkServer &) = delete;

  /// Runs the body on \p In in a fresh child of the helper under
  /// \p Limits. Whatever the child writes to its pipe lands in \p Output:
  /// the prefix it managed to write before dying (complete iff Status is
  /// Ok/Fail), bounded at ~16 MiB, past which the child sees EPIPE.
  /// `Unsupported` when the helper or its child cannot be forked (no fork,
  /// or fork/socketpair/pipe failed).
  IsolateResult run(const std::string &In, const IsolateLimits &Limits,
                    std::string &Output);

  /// Helpers spawned so far (the first plus every respawn after a death).
  /// Safe to read from any thread.
  uint64_t spawns() const { return Spawns.load(std::memory_order_relaxed); }

  /// The live helper's pid, or -1 when none is running.
  int helperPid() const { return Helper; }

private:
  bool spawn();
  /// Kills and reaps the helper, closes the channel, and classifies the
  /// helper's death as the Crash of the current request.
  IsolateResult helperLost(double ElapsedMs);

  Body Fn;
  int Helper = -1; ///< helper pid
  int Chan = -1;   ///< caller's end of the socketpair
  std::atomic<uint64_t> Spawns{0};
};

} // namespace guard
} // namespace pseq

#endif // PSEQ_GUARD_ISOLATE_H

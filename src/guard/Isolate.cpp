//===- guard/Isolate.cpp - Fork-based crash isolation ---------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "guard/Isolate.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <exception>
#include <initializer_list>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#define PSEQ_HAVE_FORK 1
#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#ifdef __linux__
#include <sys/prctl.h>
#include <sys/syscall.h>
#endif

#if defined(PSEQ_HAVE_FORK) && !defined(MSG_NOSIGNAL)
#define MSG_NOSIGNAL 0 // no per-call flag (macOS): a dead peer raises SIGPIPE
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PSEQ_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PSEQ_UNDER_SANITIZER 1
#endif
#endif

using namespace pseq;
using namespace pseq::guard;

bool pseq::guard::underSanitizer() {
#ifdef PSEQ_UNDER_SANITIZER
  return true;
#else
  return false;
#endif
}

const char *pseq::guard::isolateStatusName(IsolateStatus S) {
  switch (S) {
  case IsolateStatus::Ok:
    return "ok";
  case IsolateStatus::Fail:
    return "fail";
  case IsolateStatus::Deadline:
    return "deadline";
  case IsolateStatus::Oom:
    return "oom";
  case IsolateStatus::Crash:
    return "crash";
  case IsolateStatus::Unsupported:
    return "unsupported";
  }
  return "unknown";
}

bool pseq::guard::isolationSupported() {
#ifdef PSEQ_HAVE_FORK
  return true;
#else
  return false;
#endif
}

#ifdef PSEQ_HAVE_FORK

namespace {

/// Maximum bytes drained from a capture child; past this the pipe is
/// closed and the child's writes fail with EPIPE. Matches the server's
/// wire frame cap so a captured payload always fits in one reply.
constexpr size_t CaptureCapBytes = 16u << 20;

using Clock = std::chrono::steady_clock;

/// Fork-time half of the child-side setup: never outlive the forking
/// process. On Linux a child of a killed fork server helper (its job or
/// its idle spare) dies with it. (The forking thread outlives the child,
/// so the signal cannot fire on a mere thread exit.)
void childBindToParent(pid_t Parent) {
#ifdef __linux__
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != Parent)
    raise(SIGKILL); // the parent died before prctl took effect
#else
  (void)Parent;
#endif
}

/// Job-time half of the child-side setup: rlimits + signal reset. A child
/// inherits the parent's graceful SIGINT/SIGTERM handlers (guard/Signals),
/// or a fork server helper's ignored ones; neither must hold in the child
/// — its death is the parent's signal to classify, not a cooperative
/// shutdown — so the dispositions go back to the default.
void childSetup(const IsolateLimits &Limits) {
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  // A capture child that outlives the parent's drain must die on write,
  // not take down the process group with SIGPIPE.
  std::signal(SIGPIPE, SIG_DFL);
  if (Limits.CpuSeconds) {
    struct rlimit RL;
    RL.rlim_cur = static_cast<rlim_t>(Limits.CpuSeconds);
    RL.rlim_max = static_cast<rlim_t>(Limits.CpuSeconds + 1); // hard SIGKILL
    setrlimit(RLIMIT_CPU, &RL);
  }
  if (Limits.MemBytes && !underSanitizer()) {
    struct rlimit RL;
    RL.rlim_cur = static_cast<rlim_t>(Limits.MemBytes);
    RL.rlim_max = static_cast<rlim_t>(Limits.MemBytes);
    setrlimit(RLIMIT_AS, &RL);
  }
}

/// Maps a body's outcome onto the child exit code. Never returns.
[[noreturn]] void childExit(const std::function<int()> &Body) {
  int Code;
  try {
    Code = Body();
  } catch (const std::bad_alloc &) {
    Code = IsolateOomExit;
  } catch (...) {
    Code = IsolateExceptionExit;
  }
  // _Exit: no static destructors, no atexit, no flushing of parent-shared
  // buffers (the parent flushed before forking).
  std::_Exit(Code & 0xff);
}

IsolateResult classify(int WStatus) {
  IsolateResult R;
  if (WIFEXITED(WStatus)) {
    R.ExitCode = WEXITSTATUS(WStatus);
    if (R.ExitCode == 0)
      R.Status = IsolateStatus::Ok;
    else if (R.ExitCode == IsolateOomExit)
      R.Status = IsolateStatus::Oom;
    else if (R.ExitCode == IsolateExceptionExit)
      R.Status = IsolateStatus::Crash;
    else
      R.Status = IsolateStatus::Fail;
    return R;
  }
  if (WIFSIGNALED(WStatus)) {
    R.Signal = WTERMSIG(WStatus);
    // SIGXCPU: the soft CPU rlimit fired. SIGKILL is ambiguous — the hard
    // CPU limit delivers it, but so does the OOM killer or an external
    // `kill -9` — and is disambiguated by rusage in waitAndClassify.
    // Wall timeouts are classified by the parent before this runs.
    R.Status = (R.Signal == SIGXCPU || R.Signal == SIGKILL)
                   ? IsolateStatus::Deadline
                   : IsolateStatus::Crash;
    return R;
  }
  R.Status = IsolateStatus::Crash;
  return R;
}

void recordUsage(IsolateResult &R, const struct rusage &RU) {
#ifdef __APPLE__
  R.PeakRssKb = static_cast<uint64_t>(RU.ru_maxrss) / 1024; // bytes on macOS
#else
  R.PeakRssKb = static_cast<uint64_t>(RU.ru_maxrss); // KiB on Linux
#endif
  R.UserMs = RU.ru_utime.tv_sec * 1000.0 + RU.ru_utime.tv_usec / 1000.0;
  R.SysMs = RU.ru_stime.tv_sec * 1000.0 + RU.ru_stime.tv_usec / 1000.0;
  R.MinorFaults = static_cast<uint64_t>(RU.ru_minflt);
}

/// Drains whatever is currently readable from \p Fd into \p Output, up to
/// the capture cap. Returns false once the pipe reports EOF.
bool drainPipe(int Fd, std::string &Output) {
  char Buf[1 << 16];
  for (;;) {
    ssize_t N = read(Fd, Buf, sizeof(Buf));
    if (N > 0) {
      if (Output.size() < CaptureCapBytes)
        Output.append(Buf, static_cast<size_t>(
                               std::min<size_t>(static_cast<size_t>(N),
                                                CaptureCapBytes -
                                                    Output.size())));
      continue;
    }
    if (N == 0)
      return false; // EOF: child closed its end (usually by dying)
    return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  }
}

/// A descriptor that polls readable once \p Pid has exited, or -1 where
/// the host has no pidfd_open (the wait loop then naps in 2 ms periods).
int openPidFd(pid_t Pid) {
#if defined(__linux__) && defined(SYS_pidfd_open)
  return static_cast<int>(syscall(SYS_pidfd_open, Pid, 0));
#else
  (void)Pid;
  return -1;
#endif
}

/// Parent-side wait loop shared by `runIsolated` and the fork server
/// helper: enforces the wall deadline, drains \p ReadFd (when >= 0) while
/// waiting, reaps with wait4 for rusage, classifies. Closes ReadFd before
/// returning.
///
/// One loop: a WNOHANG reap, then one poll on the child's pidfd and the
/// capture pipe, timed out at the wall deadline, so the parent wakes the
/// moment the child exits or writes. With no deadline and no pipe left to
/// drain, the reap simply blocks.
IsolateResult waitAndClassify(pid_t Pid, const IsolateLimits &Limits,
                              Clock::time_point Start, int ReadFd,
                              std::string *Output) {
  auto elapsedMs = [&] {
    return std::chrono::duration<double, std::milli>(Clock::now() - Start)
        .count();
  };

  IsolateResult R;
  struct rusage RU;
  int WStatus = 0;
  bool TimedOut = false;
  const int PidFd =
      Limits.WallMs != 0 || ReadFd >= 0 ? openPidFd(Pid) : -1;
  for (;;) {
    const bool Watch = Limits.WallMs != 0 || ReadFd >= 0;
    pid_t Got = wait4(Pid, &WStatus, Watch ? WNOHANG : 0, &RU);
    if (Got == Pid)
      break;
    if (Got < 0) {
      R.Status = IsolateStatus::Crash; // wait4 failure: treat as lost child
      R.ElapsedMs = elapsedMs();
      if (ReadFd >= 0)
        close(ReadFd);
      if (PidFd >= 0)
        close(PidFd);
      return R;
    }
    int TimeoutMs = -1;
    if (Limits.WallMs) {
      double LeftMs = static_cast<double>(Limits.WallMs) - elapsedMs();
      if (LeftMs <= 0) {
        TimedOut = true;
        kill(Pid, SIGKILL);
        wait4(Pid, &WStatus, 0, &RU); // blocking reap of the killed child
        break;
      }
      TimeoutMs = static_cast<int>(std::min(std::ceil(LeftMs), 1e9));
    }
    if (PidFd < 0 && (TimeoutMs < 0 || TimeoutMs > 2))
      TimeoutMs = 2; // no exit notification: nap and re-check
    struct pollfd PFDs[2];
    nfds_t N = 0;
    if (ReadFd >= 0)
      PFDs[N++] = {ReadFd, POLLIN, 0};
    if (PidFd >= 0)
      PFDs[N++] = {PidFd, POLLIN, 0};
    poll(PFDs, N, TimeoutMs);
    if (ReadFd >= 0 && !drainPipe(ReadFd, *Output)) {
      close(ReadFd);
      ReadFd = -1; // EOF reached; keep waiting for the exit status
    }
  }
  if (PidFd >= 0)
    close(PidFd);

  if (ReadFd >= 0) {
    // The child is gone; collect whatever it flushed before dying.
    drainPipe(ReadFd, *Output);
    close(ReadFd);
  }

  R = classify(WStatus);
  if (TimedOut) {
    R.Status = IsolateStatus::Deadline;
    R.Signal = SIGKILL;
  }
  recordUsage(R, RU);
  // Rusage disambiguates a SIGKILL death: the hard CPU rlimit only
  // delivers it once the child has actually consumed its CPU budget. A
  // SIGKILLed child whose CPU time is well short of the limit was killed
  // by something else (OOM killer, external kill -9, chaos injection) —
  // that is a crash to retry, not a deadline to report.
  if (!TimedOut && R.Status == IsolateStatus::Deadline &&
      R.Signal == SIGKILL) {
    double CpuBudgetMs = static_cast<double>(Limits.CpuSeconds) * 1000.0;
    if (Limits.CpuSeconds == 0 || R.UserMs + R.SysMs < CpuBudgetMs - 500.0)
      R.Status = IsolateStatus::Crash;
  }
  R.ElapsedMs = elapsedMs();
  return R;
}

} // namespace

IsolateResult pseq::guard::runIsolated(const std::function<int()> &Body,
                                       const IsolateLimits &Limits) {
  // Shared stdio buffers would otherwise be flushed twice (parent + child).
  std::fflush(stdout);
  std::fflush(stderr);

  const pid_t Parent = getpid();
  Clock::time_point Start = Clock::now();
  pid_t Pid = fork();
  if (Pid < 0)
    return IsolateResult{}; // Unsupported: fork failed (EAGAIN/ENOMEM)
  if (Pid == 0) {
    childBindToParent(Parent);
    childSetup(Limits);
    childExit(Body); // never returns
  }
  return waitAndClassify(Pid, Limits, Start, -1, nullptr);
}

namespace {

/// Fixed-size request header on a fork server's channel; the input bytes
/// follow. Both ends are the same binary, so the layout is shared.
struct ForkRequest {
  uint64_t WallMs;
  uint64_t CpuSeconds;
  uint64_t MemBytes;
  uint64_t InBytes;
};

/// Fixed-size reply header; the captured output bytes follow.
struct ForkReply {
  IsolateResult Result;
  uint64_t OutBytes;
};

/// Waits until \p Fd is ready for \p Events or \p Deadline passes
/// (Clock::time_point::max() waits forever).
bool awaitFd(int Fd, short Events, Clock::time_point Deadline) {
  if (Deadline == Clock::time_point::max())
    return true; // the blocking call itself waits
  for (;;) {
    auto LeftMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                      Deadline - Clock::now())
                      .count() +
                  1;
    if (LeftMs <= 0)
      return false;
    struct pollfd PFD = {Fd, Events, 0};
    int Ready = poll(&PFD, 1, static_cast<int>(std::min<long long>(
                                     LeftMs, INT_MAX)));
    if (Ready > 0)
      return true;
    if (Ready < 0 && errno != EINTR)
      return false;
  }
}

bool sendAll(int Fd, const void *Data, size_t Len,
             Clock::time_point Deadline = Clock::time_point::max()) {
  const char *P = static_cast<const char *>(Data);
  while (Len) {
    if (!awaitFd(Fd, POLLOUT, Deadline))
      return false;
    ssize_t N = send(Fd, P, Len, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    P += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

bool recvAll(int Fd, void *Data, size_t Len,
             Clock::time_point Deadline = Clock::time_point::max()) {
  char *P = static_cast<char *>(Data);
  while (Len) {
    if (!awaitFd(Fd, POLLIN, Deadline))
      return false;
    ssize_t N = read(Fd, P, Len); // a socket or a pipe
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false; // EOF: the other end is gone
    P += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

/// Blocking write of all of \p Data to a pipe. False when the reader is
/// gone (EPIPE: the caller ignores SIGPIPE) or the write fails.
bool writeAll(int Fd, const void *Data, size_t Len) {
  const char *P = static_cast<const char *>(Data);
  while (Len) {
    ssize_t N = write(Fd, P, Len);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    P += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

/// Closes every descriptor above stdio except \p Keep. A helper that kept
/// the listen socket, a connection or another helper's channel open would
/// hold that resource past its owner's close — another helper would then
/// never see EOF, and a server waiting for it would never stop.
void closeInheritedFds(int Keep) {
#if defined(__linux__) && defined(SYS_close_range)
  bool Closed =
      (Keep <= 3 ||
       syscall(SYS_close_range, 3u, static_cast<unsigned>(Keep - 1), 0u) ==
           0) &&
      syscall(SYS_close_range, static_cast<unsigned>(std::max(3, Keep + 1)),
              ~0u, 0u) == 0;
  if (Closed)
    return;
#endif
  int Max = 1024;
  struct rlimit RL;
  if (getrlimit(RLIMIT_NOFILE, &RL) == 0 && RL.rlim_cur != RLIM_INFINITY)
    Max = static_cast<int>(std::min<rlim_t>(RL.rlim_cur, 1 << 16));
  for (int Fd = 3; Fd < Max; ++Fd)
    if (Fd != Keep)
      close(Fd);
}

IsolateLimits limitsOf(const ForkRequest &Req) {
  IsolateLimits Limits;
  Limits.WallMs = Req.WallMs;
  Limits.CpuSeconds = Req.CpuSeconds;
  Limits.MemBytes = Req.MemBytes;
  return Limits;
}

/// A helper's spare child: forked ahead of the request it will run, and
/// blocked reading its request pipe until then. The helper holds the
/// other ends of the spare's two pipes.
struct Spare {
  pid_t Pid = -1;
  int ReqFd = -1; ///< write end of the request pipe
  int OutFd = -1; ///< read end of the capture pipe (nonblocking)
};

/// A spare's life: wait for a request, then become its isolated child. The
/// rlimits and signal reset apply only now, so an idle spare costs its
/// job nothing. EOF before a whole request means the helper retired it.
[[noreturn]] void spareMain(int ReqFd, int OutFd, const ForkServer::Body &Fn) {
  ForkRequest Req;
  std::string In;
  if (!recvAll(ReqFd, &Req, sizeof(Req)))
    std::_Exit(0);
  In.resize(Req.InBytes);
  if (!recvAll(ReqFd, In.data(), In.size()))
    std::_Exit(0);
  close(ReqFd);
  childSetup(limitsOf(Req));
  childExit([&] { return Fn(In, OutFd); }); // never returns
}

/// Forks a spare into \p S. \p HelperFds are the descriptors the helper
/// holds besides the new spare's pipes (its channel, and the capture pipe
/// of a job running beside the spare); the helper closed everything else
/// it inherited once, at start. False when a pipe or the fork fails.
bool forkSpare(Spare &S, const ForkServer::Body &Fn,
               std::initializer_list<int> HelperFds) {
  int Req[2], Out[2];
  if (pipe(Req) != 0)
    return false;
  if (pipe(Out) != 0) {
    close(Req[0]);
    close(Req[1]);
    return false;
  }
  const pid_t Helper = getpid();
  const pid_t Pid = fork();
  if (Pid == 0) {
    childBindToParent(Helper);
    // The spare holds its two pipe ends and nothing else: not the channel,
    // not the capture pipe of the job running beside it.
    for (int Fd : HelperFds)
      if (Fd >= 0)
        close(Fd);
    close(Req[1]);
    close(Out[0]);
    spareMain(Req[0], Out[1], Fn); // never returns
  }
  close(Req[0]);
  close(Out[1]);
  if (Pid < 0) {
    close(Req[1]);
    close(Out[0]);
    return false;
  }
  // Nonblocking read end: the wait loop interleaves draining with the
  // wall-deadline watch, and must never block on a silent child.
  fcntl(Out[0], F_SETFL, fcntl(Out[0], F_GETFL, 0) | O_NONBLOCK);
  S = Spare{Pid, Req[1], Out[0]};
  return true;
}

/// Closes \p S's pipes, kills and reaps it. \returns its wait status.
int retireSpare(Spare &S) {
  close(S.ReqFd);
  close(S.OutFd);
  kill(S.Pid, SIGKILL);
  int WStatus = 0;
  while (waitpid(S.Pid, &WStatus, 0) < 0 && errno == EINTR)
    ;
  S = Spare();
  return WStatus;
}

/// Fresh spares tried for one request before a dead-on-delivery streak is
/// reported as the request's crash.
constexpr unsigned DeliveryTries = 3;

/// Runs one request in the spare \p S and forks the next spare while it
/// runs. A spare found dead at delivery (EPIPE or a short write) is reaped
/// and replaced; the request goes to the fresh one.
IsolateResult runOnSpare(Spare &S, int Chan, const ForkRequest &Req,
                         const std::string &In, const ForkServer::Body &Fn,
                         std::string &Output) {
  Output.clear();
  Clock::time_point Start;
  for (unsigned Try = 1;; ++Try) {
    if (S.Pid < 0 && !forkSpare(S, Fn, {Chan}))
      return IsolateResult{}; // Unsupported: no process to run the job in
    // The wall clock starts at delivery: time the spare spent idle is not
    // the job's.
    Start = Clock::now();
    if (writeAll(S.ReqFd, &Req, sizeof(Req)) &&
        writeAll(S.ReqFd, In.data(), In.size()))
      break;
    const int WStatus = retireSpare(S);
    if (Try == DeliveryTries) {
      IsolateResult R = classify(WStatus);
      R.Status = IsolateStatus::Crash; // retryable, whatever killed them
      return R;
    }
  }
  const Spare Job = S;
  close(Job.ReqFd);
  // The next request's child, forked while this one runs; when the fork
  // fails, the next delivery tries again.
  S = Spare();
  forkSpare(S, Fn, {Chan, Job.OutFd});
  return waitAndClassify(Job.Pid, limitsOf(Req), Start, Job.OutFd, &Output);
}

/// The helper process: serves requests on \p Chan until EOF, each in the
/// spare forked ahead of it.
[[noreturn]] void helperMain(int Chan, const ForkServer::Body &Fn) {
  // Shutdown is the owner's decision, delivered as EOF on the channel; a
  // terminal's SIGINT to the whole process group must not pre-empt it.
  std::signal(SIGINT, SIG_IGN);
  std::signal(SIGTERM, SIG_IGN);
  // A spare that died idle fails its delivery with EPIPE instead.
  std::signal(SIGPIPE, SIG_IGN);
  closeInheritedFds(Chan);
  Spare S;
  forkSpare(S, Fn, {Chan}); // forked while the owner sends the first request
  std::string In, Out;
  for (;;) {
    ForkRequest Req;
    if (!recvAll(Chan, &Req, sizeof(Req)))
      break;
    In.resize(Req.InBytes);
    if (!recvAll(Chan, In.data(), In.size()))
      break;
    ForkReply Rep;
    Rep.Result = runOnSpare(S, Chan, Req, In, Fn, Out);
    Rep.OutBytes = Out.size();
    if (!sendAll(Chan, &Rep, sizeof(Rep)) ||
        !sendAll(Chan, Out.data(), Out.size()))
      break;
  }
  if (S.Pid >= 0)
    retireSpare(S);
  std::_Exit(0);
}

} // namespace

ForkServer::ForkServer(Body F) : Fn(std::move(F)) {}

ForkServer::~ForkServer() {
  if (Helper < 0)
    return;
  close(Chan); // the helper exits on EOF
  while (waitpid(Helper, nullptr, 0) < 0 && errno == EINTR)
    ;
}

bool ForkServer::spawn() {
  int Sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, Sv) != 0)
    return false;
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t Pid = fork();
  if (Pid < 0) {
    close(Sv[0]);
    close(Sv[1]);
    return false;
  }
  if (Pid == 0) {
    close(Sv[0]);
    helperMain(Sv[1], Fn); // never returns
  }
  close(Sv[1]);
  Helper = Pid;
  Chan = Sv[0];
  Spawns.fetch_add(1, std::memory_order_relaxed);
  return true;
}

IsolateResult ForkServer::helperLost(double ElapsedMs) {
  kill(Helper, SIGKILL);
  int WStatus = 0;
  while (waitpid(Helper, &WStatus, 0) < 0 && errno == EINTR)
    ;
  close(Chan);
  Helper = -1;
  Chan = -1;
  IsolateResult R = classify(WStatus);
  R.Status = IsolateStatus::Crash; // retryable, whatever killed it
  R.ElapsedMs = ElapsedMs;
  return R;
}

IsolateResult ForkServer::run(const std::string &In,
                              const IsolateLimits &Limits,
                              std::string &Output) {
  Output.clear();
  if (Helper < 0 && !spawn())
    return IsolateResult{}; // Unsupported
  const Clock::time_point Start = Clock::now();
  // The helper enforces WallMs on the job itself; a helper silent for a
  // second past that is wedged or dead.
  const Clock::time_point Deadline =
      Limits.WallMs ? Start + std::chrono::milliseconds(Limits.WallMs + 1000)
                    : Clock::time_point::max();
  ForkRequest Req = {Limits.WallMs, Limits.CpuSeconds, Limits.MemBytes,
                     static_cast<uint64_t>(In.size())};
  ForkReply Rep;
  bool Answered = sendAll(Chan, &Req, sizeof(Req), Deadline) &&
                  sendAll(Chan, In.data(), In.size(), Deadline) &&
                  recvAll(Chan, &Rep, sizeof(Rep), Deadline) &&
                  Rep.OutBytes <= CaptureCapBytes;
  if (Answered) {
    Output.resize(Rep.OutBytes);
    Answered = recvAll(Chan, Output.data(), Output.size(), Deadline);
  }
  if (!Answered) {
    Output.clear();
    return helperLost(std::chrono::duration<double, std::milli>(
                          Clock::now() - Start)
                          .count());
  }
  return Rep.Result;
}

#else // !PSEQ_HAVE_FORK

IsolateResult pseq::guard::runIsolated(const std::function<int()> &,
                                       const IsolateLimits &) {
  return IsolateResult{};
}

ForkServer::ForkServer(Body F) : Fn(std::move(F)) {}

ForkServer::~ForkServer() = default;

IsolateResult ForkServer::run(const std::string &, const IsolateLimits &,
                              std::string &Output) {
  Output.clear();
  return IsolateResult{};
}

#endif

//===- serve/Server.h - The validation batch server -------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived daemon behind `validate_server`: accepts connections on
/// a Unix socket, reads job frames, schedules them over a worker pool of
/// crash-isolated runners (serve/Job.h), and answers every frame — the
/// server-side half of the "exactly one verdict per job" invariant.
///
/// Robustness posture:
///  * Admission control: a job whose verdict is cached is answered at
///    admission, on the connection's reader thread, without a queue slot;
///    the rest go to a bounded job queue with a high-water mark, past
///    which they are answered `overloaded` immediately instead of growing
///    memory without bound.
///  * Crash isolation: every job runs in a fresh process under its own
///    rlimits; a SIGSEGV/OOM/runaway child is classified and retried by
///    the job layer, never takes the daemon. The children are forked not
///    by the daemon (a fork per job write-protected the daemon's heap and
///    stalled its other threads) but by a small single-threaded helper
///    per worker (guard::ForkServer), spawned on the worker's first
///    isolated job and respawned after it dies. The helper forks each
///    job's child while the previous job runs.
///  * Warm restart: the verdict cache and the lint memo table snapshot to
///    disk (atomically) on shutdown and reload on start, so a SIGTERMed
///    and restarted server answers repeated jobs from cache.
///  * Graceful drain: SIGTERM/SIGINT (guard/Signals) or a `shutdown` op
///    stops admissions, answers queued-but-unrun jobs with `shutdown`,
///    joins the workers, saves snapshots, and returns — the binary then
///    exits with GracefulSignalExit.
///
/// Concurrency: one accept loop (poll-based, in run()), one reader thread
/// per connection, NumWorkers worker threads popping a shared queue, and
/// one fork server helper process per worker, with its idle spare child
/// (both reaped when the server is destroyed).
/// Replies are serialized per connection by a per-connection write mutex;
/// tallies are lock-free atomics mirrored into `serve.*` telemetry keys.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_SERVE_SERVER_H
#define PSEQ_SERVE_SERVER_H

#include "guard/Isolate.h"
#include "serve/Job.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

namespace pseq {

namespace obs {
struct Telemetry;
}

namespace serve {

struct ServerOptions {
  std::string SocketPath;
  unsigned NumWorkers = 2;
  /// Queue high-water mark: jobs arriving while the queue holds this many
  /// are shed with `overloaded`.
  size_t QueueHighWater = 256;
  /// Snapshot base path; empty = no persistence. The verdict cache goes
  /// to `<path>` and the lint memo table to `<path>.lint`.
  std::string SnapshotPath;
  uint64_t CacheCapBytes = 8u << 20;
  JobPolicy Policy;
  /// Optional telemetry (borrowed): tallies are folded into `serve.*`
  /// counters/gauges at stats time and on shutdown.
  obs::Telemetry *Telem = nullptr;
};

/// Monotonic tallies, readable while the server runs (all relaxed).
struct ServerTallies {
  std::atomic<uint64_t> Connections{0};
  std::atomic<uint64_t> Frames{0};
  std::atomic<uint64_t> Jobs{0};
  std::atomic<uint64_t> JobsOk{0};
  std::atomic<uint64_t> JobsRejected{0};
  std::atomic<uint64_t> JobsBounded{0};
  std::atomic<uint64_t> JobsFailed{0}; ///< crash + oom + deadline
  std::atomic<uint64_t> Shed{0};
  std::atomic<uint64_t> BadRequests{0};
  std::atomic<uint64_t> Retries{0};
  std::atomic<uint64_t> Crashes{0};
  std::atomic<uint64_t> Ooms{0};
  std::atomic<uint64_t> Deadlines{0};
  std::atomic<uint64_t> ChaosInjected{0};
  std::atomic<uint64_t> QueuePeak{0};
  std::atomic<uint64_t> WorkerUserMs{0};
  std::atomic<uint64_t> WorkerSysMs{0};
  std::atomic<uint64_t> WorkerMinorFaults{0};
  std::atomic<uint64_t> WorkerPeakRssKb{0}; ///< max over jobs
  std::atomic<uint64_t> SnapshotLoaded{0};
  std::atomic<uint64_t> SnapshotSaved{0};
};

class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the socket, loads snapshots, spawns workers. False + \p Err on
  /// any setup failure (socket in use, unsupported host...).
  bool start(std::string &Err);

  /// Serves until requestStop() / a shutdown op / a shutdown signal
  /// (guard/Signals). Returns only after the full drain.
  void run();

  /// Asks run() to return (callable from any thread / signal context via
  /// guard::shutdownRequested, which run() also polls).
  void requestStop();

  const ServerTallies &tallies() const { return Tally; }
  const VerdictCache &cache() const { return Cache; }
  memo::MemoContext &memo() { return Memo; }

  /// Counters/gauges exactly as the `stats` op reports them.
  void statsSnapshot(std::map<std::string, uint64_t> &Counters,
                     std::map<std::string, double> &Gauges) const;

private:
  struct Connection {
    int Fd = -1;
    std::mutex WriteMu;
    std::thread Reader;
    std::atomic<bool> Closed{false};
  };

  struct QueuedJob {
    std::shared_ptr<Connection> Conn;
    JobRequest Req;
    memo::Fp128 Fp; ///< jobFingerprint, computed once at admission
  };

  void readerLoop(std::shared_ptr<Connection> Conn);
  void workerLoop(guard::ForkServer *Isolator);
  void reply(Connection &Conn, const std::string &Payload);
  void handleJobFrame(const std::shared_ptr<Connection> &Conn,
                      JobRequest Req);
  void recordResult(const JobResult &R, const JobTrace &Trace);
  void loadSnapshots();
  void saveSnapshots();
  void foldIntoTelemetry();

  ServerOptions Opts;
  ServerTallies Tally;
  VerdictCache Cache;
  memo::MemoContext Memo;
  int ListenFd = -1;

  mutable std::mutex QueueMu;
  std::condition_variable QueueCv;
  std::deque<QueuedJob> Queue;
  std::atomic<bool> Stopping{false};

  /// One per worker when jobs are isolated; never resized after start(),
  /// so statsSnapshot may read it from any thread.
  std::vector<std::unique_ptr<guard::ForkServer>> Isolators;
  std::vector<std::thread> Workers;
  std::mutex ConnsMu;
  std::vector<std::shared_ptr<Connection>> Conns;
};

} // namespace serve
} // namespace pseq

#endif // PSEQ_SERVE_SERVER_H

//===- serve/Server.cpp - The validation batch server ---------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "guard/Signals.h"
#include "obs/Telemetry.h"
#include "serve/Wire.h"

#include <algorithm>

#ifdef __unix__
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#define PSEQ_SERVE_POSIX 1
#elif defined(__APPLE__)
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#define PSEQ_SERVE_POSIX 1
#endif

using namespace pseq;
using namespace pseq::serve;

Server::Server(ServerOptions O)
    : Opts(std::move(O)), Cache(Opts.CacheCapBytes),
      Memo(memo::MemoContext::Options()) {}

Server::~Server() {
  if (ListenFd >= 0)
    closeFd(ListenFd);
}

bool Server::start(std::string &Err) {
  if (!wireSupported()) {
    Err = "unix sockets unsupported on this host";
    return false;
  }
  if (Opts.SocketPath.empty()) {
    Err = "no socket path configured";
    return false;
  }
  loadSnapshots();
  ListenFd = listenUnix(Opts.SocketPath, &Err);
  if (ListenFd < 0)
    return false;
  unsigned N = std::max(1u, Opts.NumWorkers);
  // Helpers spawn lazily, on each worker's first isolated job: start-up
  // stays as fast as with no isolation at all.
  if (Opts.Policy.Isolate && guard::isolationSupported())
    for (unsigned I = 0; I != N; ++I)
      Isolators.push_back(
          std::make_unique<guard::ForkServer>(runIsolatedJob));
  Workers.reserve(N);
  for (unsigned I = 0; I != N; ++I) {
    guard::ForkServer *Isolator =
        Isolators.empty() ? nullptr : Isolators[I].get();
    Workers.emplace_back([this, Isolator] { workerLoop(Isolator); });
  }
  return true;
}

void Server::requestStop() {
  {
    // Published under QueueMu: a worker that has just found the queue
    // empty holds it until it is waiting, so it cannot miss the notify.
    std::lock_guard<std::mutex> Lock(QueueMu);
    Stopping.store(true, std::memory_order_release);
  }
  QueueCv.notify_all();
}

void Server::run() {
#ifdef PSEQ_SERVE_POSIX
  // Accept loop. 100ms poll timeout so stop requests (flag or signal) are
  // noticed promptly even with no traffic.
  while (!Stopping.load(std::memory_order_acquire) &&
         !guard::shutdownRequested()) {
    struct pollfd PFD = {ListenFd, POLLIN, 0};
    int PR = poll(&PFD, 1, 100);
    if (PR <= 0)
      continue;
    int Fd = accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    Tally.Connections.fetch_add(1, std::memory_order_relaxed);
    auto Conn = std::make_shared<Connection>();
    Conn->Fd = Fd;
    {
      std::lock_guard<std::mutex> Lock(ConnsMu);
      Conns.push_back(Conn);
    }
    Conn->Reader = std::thread([this, Conn] { readerLoop(Conn); });
  }
#endif
  requestStop();

  // Drain: workers finish in-flight jobs; jobs still queued after the
  // workers exit are answered `shutdown` (never silently dropped).
  for (std::thread &W : Workers)
    W.join();
  Workers.clear();
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    while (!Queue.empty()) {
      QueuedJob QJ = std::move(Queue.front());
      Queue.pop_front();
      JobResult R;
      R.Id = QJ.Req.Id;
      R.Status = JobStatus::Shutdown;
      R.Detail = "server stopped before this job ran";
      reply(*QJ.Conn, encodeJobResult(R));
    }
  }

  // Stop accepting new frames, then reap the reader threads.
  if (ListenFd >= 0) {
    closeFd(ListenFd);
    ListenFd = -1;
  }
  std::vector<std::shared_ptr<Connection>> Open;
  {
    std::lock_guard<std::mutex> Lock(ConnsMu);
    Open.swap(Conns);
  }
  for (auto &Conn : Open) {
#ifdef PSEQ_SERVE_POSIX
    shutdown(Conn->Fd, SHUT_RD); // unblocks the reader's recvFrame
#endif
    if (Conn->Reader.joinable())
      Conn->Reader.join();
    closeFd(Conn->Fd);
  }

  saveSnapshots();
  foldIntoTelemetry();
}

void Server::reply(Connection &Conn, const std::string &Payload) {
  std::lock_guard<std::mutex> Lock(Conn.WriteMu);
  if (Conn.Closed.load(std::memory_order_acquire))
    return;
  if (!sendFrame(Conn.Fd, Payload))
    Conn.Closed.store(true, std::memory_order_release);
}

void Server::handleJobFrame(const std::shared_ptr<Connection> &Conn,
                            JobRequest Req) {
  auto refuse = [&](JobStatus Status, std::string Detail) {
    JobResult R;
    R.Id = Req.Id;
    R.Status = Status;
    R.Detail = std::move(Detail);
    reply(*Conn, encodeJobResult(R));
  };
  if (Stopping.load(std::memory_order_acquire))
    return refuse(JobStatus::Shutdown, "server is draining");
  // A cached verdict takes no queue slot and waits for no worker: answer
  // it here. A miss is left for the worker's probe in runJob to count.
  const memo::Fp128 Fp = jobFingerprint(Req, Opts.Policy);
  JobResult Hit;
  if (cachedVerdict(Req, Fp, Cache, false, Hit)) {
    recordResult(Hit, JobTrace());
    reply(*Conn, encodeJobResult(Hit));
    return;
  }
  std::unique_lock<std::mutex> Lock(QueueMu);
  // Checked again under the queue lock: the drain answers whatever is
  // queued once it holds the lock, so nothing may be queued after it.
  if (Stopping.load(std::memory_order_acquire)) {
    Lock.unlock();
    return refuse(JobStatus::Shutdown, "server is draining");
  }
  if (Queue.size() >= Opts.QueueHighWater) {
    Lock.unlock();
    // Admission control: shed explicitly instead of queueing without
    // bound. The client sees `overloaded` and can back off and resubmit.
    Tally.Shed.fetch_add(1, std::memory_order_relaxed);
    return refuse(JobStatus::Overloaded,
                  "queue past high-water mark (" +
                      std::to_string(Opts.QueueHighWater) + ")");
  }
  Queue.push_back(QueuedJob{Conn, std::move(Req), Fp});
  uint64_t Depth = Queue.size();
  Lock.unlock();
  uint64_t Peak = Tally.QueuePeak.load(std::memory_order_relaxed);
  while (Peak < Depth && !Tally.QueuePeak.compare_exchange_weak(
                             Peak, Depth, std::memory_order_relaxed))
    ;
  QueueCv.notify_one();
}

void Server::readerLoop(std::shared_ptr<Connection> Conn) {
  std::string Payload;
  std::string Err;
  while (!Conn->Closed.load(std::memory_order_acquire)) {
    if (!recvFrame(Conn->Fd, Payload, &Err))
      break; // EOF or transport error: the connection is done either way
    Tally.Frames.fetch_add(1, std::memory_order_relaxed);
    Request Req = parseRequest(Payload);
    switch (Req.Op) {
    case RequestOp::Ping:
      reply(*Conn, encodePong());
      break;
    case RequestOp::Stats: {
      std::map<std::string, uint64_t> Counters;
      std::map<std::string, double> Gauges;
      statsSnapshot(Counters, Gauges);
      reply(*Conn, encodeStatsReply(Counters, Gauges));
      break;
    }
    case RequestOp::Shutdown:
      reply(*Conn, encodeShutdownAck());
      requestStop();
      break;
    case RequestOp::Job:
      handleJobFrame(Conn, std::move(Req.Job));
      break;
    case RequestOp::Invalid:
      Tally.BadRequests.fetch_add(1, std::memory_order_relaxed);
      reply(*Conn, encodeErrorReply(Req.ParseErr));
      break;
    }
  }
  Conn->Closed.store(true, std::memory_order_release);
}

void Server::recordResult(const JobResult &R, const JobTrace &Trace) {
  Tally.Jobs.fetch_add(1, std::memory_order_relaxed);
  switch (R.Status) {
  case JobStatus::Ok:
    Tally.JobsOk.fetch_add(1, std::memory_order_relaxed);
    break;
  case JobStatus::Rejected:
    Tally.JobsRejected.fetch_add(1, std::memory_order_relaxed);
    break;
  case JobStatus::Bounded:
    Tally.JobsBounded.fetch_add(1, std::memory_order_relaxed);
    break;
  case JobStatus::Crash:
    Tally.Crashes.fetch_add(1, std::memory_order_relaxed);
    Tally.JobsFailed.fetch_add(1, std::memory_order_relaxed);
    break;
  case JobStatus::Oom:
    Tally.Ooms.fetch_add(1, std::memory_order_relaxed);
    Tally.JobsFailed.fetch_add(1, std::memory_order_relaxed);
    break;
  case JobStatus::Deadline:
    Tally.Deadlines.fetch_add(1, std::memory_order_relaxed);
    Tally.JobsFailed.fetch_add(1, std::memory_order_relaxed);
    break;
  case JobStatus::BadRequest:
    Tally.BadRequests.fetch_add(1, std::memory_order_relaxed);
    break;
  case JobStatus::Overloaded:
  case JobStatus::Shutdown:
    break; // tallied at the admission/drain site
  }
  Tally.Retries.fetch_add(Trace.Retries, std::memory_order_relaxed);
  if (Trace.ChaosInjected)
    Tally.ChaosInjected.fetch_add(1, std::memory_order_relaxed);
  Tally.WorkerUserMs.fetch_add(static_cast<uint64_t>(R.UserMs),
                               std::memory_order_relaxed);
  Tally.WorkerSysMs.fetch_add(static_cast<uint64_t>(R.SysMs),
                              std::memory_order_relaxed);
  Tally.WorkerMinorFaults.fetch_add(R.MinorFaults, std::memory_order_relaxed);
  uint64_t Rss = Tally.WorkerPeakRssKb.load(std::memory_order_relaxed);
  while (Rss < R.PeakRssKb && !Tally.WorkerPeakRssKb.compare_exchange_weak(
                                  Rss, R.PeakRssKb,
                                  std::memory_order_relaxed))
    ;
}

void Server::workerLoop(guard::ForkServer *Isolator) {
  JobDeps Deps;
  Deps.Memo = &Memo;
  Deps.Cache = &Cache;
  Deps.Isolator = Isolator;
  for (;;) {
    QueuedJob QJ;
    {
      std::unique_lock<std::mutex> Lock(QueueMu);
      QueueCv.wait(Lock, [&] {
        return !Queue.empty() || Stopping.load(std::memory_order_acquire);
      });
      if (Queue.empty())
        return; // stopping and drained
      QJ = std::move(Queue.front());
      Queue.pop_front();
    }
    JobTrace Trace;
    JobResult R = runJob(QJ.Req, QJ.Fp, Opts.Policy, Deps, Trace);
    recordResult(R, Trace);
    reply(*QJ.Conn, encodeJobResult(R));
  }
}

void Server::statsSnapshot(std::map<std::string, uint64_t> &Counters,
                           std::map<std::string, double> &Gauges) const {
  const ServerTallies &T = Tally;
  auto L = [](const std::atomic<uint64_t> &A) {
    return A.load(std::memory_order_relaxed);
  };
  Counters["serve.connections"] = L(T.Connections);
  Counters["serve.frames"] = L(T.Frames);
  Counters["serve.jobs"] = L(T.Jobs);
  Counters["serve.jobs.ok"] = L(T.JobsOk);
  Counters["serve.jobs.rejected"] = L(T.JobsRejected);
  Counters["serve.jobs.bounded"] = L(T.JobsBounded);
  Counters["serve.jobs.failed"] = L(T.JobsFailed);
  Counters["serve.shed"] = L(T.Shed);
  Counters["serve.badrequest"] = L(T.BadRequests);
  Counters["serve.retries"] = L(T.Retries);
  Counters["serve.crashes"] = L(T.Crashes);
  Counters["serve.oom"] = L(T.Ooms);
  Counters["serve.deadline"] = L(T.Deadlines);
  Counters["serve.chaos.injected"] = L(T.ChaosInjected);
  Counters["serve.worker.user_ms"] = L(T.WorkerUserMs);
  Counters["serve.worker.sys_ms"] = L(T.WorkerSysMs);
  Counters["serve.worker.minflt"] = L(T.WorkerMinorFaults);
  Counters["serve.snapshot.loaded"] = L(T.SnapshotLoaded);
  Counters["serve.snapshot.saved"] = L(T.SnapshotSaved);
  uint64_t Spawns = 0;
  for (const auto &I : Isolators)
    Spawns += I->spawns();
  Counters["serve.isolate.spawns"] = Spawns;

  VerdictCache::CacheStats CS = Cache.stats();
  Counters["serve.cache.hits"] = CS.Hits;
  Counters["serve.cache.misses"] = CS.Misses;
  Counters["serve.cache.evictions"] = CS.Evictions;
  Counters["serve.memo.hits"] = Memo.hits();
  Counters["serve.memo.misses"] = Memo.misses();

  Gauges["serve.queue.peak"] = static_cast<double>(L(T.QueuePeak));
  Gauges["serve.cache.entries"] = static_cast<double>(CS.Entries);
  Gauges["serve.cache.bytes"] = static_cast<double>(CS.Bytes);
  Gauges["serve.worker.peak_rss_kb"] =
      static_cast<double>(L(T.WorkerPeakRssKb));
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    Gauges["serve.queue.depth"] = static_cast<double>(Queue.size());
  }
}

void Server::loadSnapshots() {
  if (Opts.SnapshotPath.empty())
    return;
  // A missing or corrupt snapshot is a cold start, not a failure: the
  // decode layer guarantees corrupted files are rejected atomically (no
  // partial load), and the server just rebuilds the cache.
  uint64_t Loaded = 0;
  std::string Err;
  if (Cache.load(Opts.SnapshotPath, Loaded, Err))
    Tally.SnapshotLoaded.fetch_add(Loaded, std::memory_order_relaxed);
  uint64_t LintLoaded = 0;
  if (memo::loadSnapshot(Memo, memo::MemoContext::Table::ServeVerdicts,
                         Opts.SnapshotPath + ".lint", LintLoaded, Err))
    Tally.SnapshotLoaded.fetch_add(LintLoaded, std::memory_order_relaxed);
}

void Server::saveSnapshots() {
  if (Opts.SnapshotPath.empty())
    return;
  std::string Err;
  if (Cache.save(Opts.SnapshotPath, Err))
    Tally.SnapshotSaved.fetch_add(Cache.stats().Entries,
                                  std::memory_order_relaxed);
  if (memo::saveSnapshot(Memo, memo::MemoContext::Table::ServeVerdicts,
                         Opts.SnapshotPath + ".lint", Err))
    Tally.SnapshotSaved.fetch_add(
        Memo.entryCount(memo::MemoContext::Table::ServeVerdicts),
        std::memory_order_relaxed);
}

void Server::foldIntoTelemetry() {
  if (!Opts.Telem)
    return;
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, double> Gauges;
  statsSnapshot(Counters, Gauges);
  obs::Stats S;
  for (const auto &KV : Counters)
    S.add(KV.first, KV.second);
  for (const auto &KV : Gauges)
    S.maxGauge(KV.first, KV.second);
  Opts.Telem->mergeCounters(S);
}

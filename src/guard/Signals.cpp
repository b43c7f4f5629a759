//===- guard/Signals.cpp - Graceful SIGINT/SIGTERM shutdown ---------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "guard/Signals.h"

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define PSEQ_HAVE_SIGACTION 1
#include <csignal>
#endif

using namespace pseq;
using namespace pseq::guard;

namespace {

std::atomic<bool> Requested{false};
std::atomic<int> Signal{0};
std::atomic<bool> Installed{false};

// The token lives behind an atomic pointer so the test-only reset can swap
// in a fresh one without racing the handler (CancellationToken is one-way:
// cancel() cannot be undone). The handler may still hold a replaced token's
// pointer for an instant, so the reset never frees one: it parks it in the
// retired list, where it stays reachable (no leak report) until exit. The
// handler never touches the list, so it stays lock-free.
std::atomic<CancellationToken *> Token{nullptr};

std::mutex RetiredMu;
std::vector<std::unique_ptr<CancellationToken>> Retired;

CancellationToken *tokenPtr() {
  CancellationToken *T = Token.load(std::memory_order_acquire);
  if (!T) {
    auto *Fresh = new CancellationToken();
    if (Token.compare_exchange_strong(T, Fresh, std::memory_order_acq_rel))
      return Fresh;
    delete Fresh;
  }
  return Token.load(std::memory_order_acquire);
}

#ifdef PSEQ_HAVE_SIGACTION
void onShutdownSignal(int Sig) {
  // Async-signal-safe: lock-free atomic stores only. A second delivery of
  // the same signal falls through to the default disposition so a wedged
  // process still dies on a double Ctrl-C.
  Requested.store(true, std::memory_order_relaxed);
  Signal.store(Sig, std::memory_order_relaxed);
  if (CancellationToken *T = Token.load(std::memory_order_relaxed))
    T->cancel();
  std::signal(Sig, SIG_DFL);
}
#endif

} // namespace

bool pseq::guard::installShutdownHandlers() {
#ifdef PSEQ_HAVE_SIGACTION
  (void)tokenPtr(); // allocate before any signal can arrive
  if (Installed.exchange(true, std::memory_order_acq_rel))
    return true;
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onShutdownSignal;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0; // no SA_RESTART: blocking accept/poll loops must wake
  bool Ok = sigaction(SIGINT, &SA, nullptr) == 0;
  Ok = sigaction(SIGTERM, &SA, nullptr) == 0 && Ok;
  return Ok;
#else
  return false;
#endif
}

bool pseq::guard::shutdownRequested() {
  return Requested.load(std::memory_order_relaxed);
}

int pseq::guard::shutdownSignal() {
  return Signal.load(std::memory_order_relaxed);
}

CancellationToken &pseq::guard::shutdownToken() { return *tokenPtr(); }

void pseq::guard::resetShutdownStateForTests() {
  Requested.store(false, std::memory_order_relaxed);
  Signal.store(0, std::memory_order_relaxed);
  if (CancellationToken *Old =
          Token.exchange(new CancellationToken(), std::memory_order_acq_rel)) {
    std::lock_guard<std::mutex> Lock(RetiredMu);
    Retired.emplace_back(Old);
  }
#ifdef PSEQ_HAVE_SIGACTION
  // Re-arm: the handler resets the disposition to SIG_DFL after firing.
  if (Installed.load(std::memory_order_acquire)) {
    Installed.store(false, std::memory_order_release);
    installShutdownHandlers();
  }
#endif
}

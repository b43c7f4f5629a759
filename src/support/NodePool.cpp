//===- support/NodePool.cpp - Per-thread recycling node pool --------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "support/NodePool.h"

#include <atomic>

using namespace pseq;

constinit thread_local pool::ThreadCache pool::Cache = {};

namespace {

std::atomic<uint64_t> Drained{0};

/// Empties the thread's free lists when the thread exits and marks the
/// cache Drained, so frees from thread-local destructors that run later
/// go straight to operator delete.
struct ExitDrain {
  ~ExitDrain() {
    pool::ThreadCache &TC = pool::Cache;
    for (size_t C = 0; C != pool::NumClasses; ++C) {
      size_t Size = (C + 1) * pool::ClassBytes;
      while (pool::ThreadCache::Block *B = TC.Head[C]) {
#ifdef PSEQ_POOL_ASAN
        ASAN_UNPOISON_MEMORY_REGION(B, Size);
#endif
        TC.Head[C] = B->Next;
        ::operator delete(B);
        Drained.fetch_add(Size, std::memory_order_relaxed);
      }
    }
    TC.Retained = 0;
    TC.State = pool::ThreadCache::Drained;
  }
};

} // namespace

void pool::freeSlow(void *P, size_t Class) noexcept {
  ThreadCache &TC = Cache;
  if (TC.State == ThreadCache::Fresh) {
    // The first free on this thread: constructing the thread-local drain
    // registers its destructor to run at thread exit.
    static thread_local ExitDrain Drain;
    (void)Drain;
    TC.State = ThreadCache::Live;
    deallocate(P, (Class + 1) * ClassBytes);
    return;
  }
  ::operator delete(P);
}

uint64_t pool::drainedBytes() {
  return Drained.load(std::memory_order_relaxed);
}

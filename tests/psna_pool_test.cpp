//===- tests/psna_pool_test.cpp - The PS^na node pool ---------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Unit tests of support/NodePool.h, the per-thread free lists every PS^na
// state, thread and message-list node comes from: LIFO reuse, the
// retained-bytes cap, the drain at thread exit, frees on a thread other
// than the allocating one (also for whole PS^na states, and as a
// multi-thread stress for the thread sanitizer), and, under
// AddressSanitizer, that touching a recycled block still reports.
//
//===----------------------------------------------------------------------===//

#include "exec/ThreadPool.h"
#include "psna/Machine.h"
#include "support/NodePool.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

using namespace pseq;

namespace {

/// Runs \p F on a new thread, whose cache starts empty, and joins it.
template <typename Fn> void onFreshThread(Fn F) {
  std::thread(std::move(F)).join();
}

} // namespace

TEST(NodePoolTest, FreedBlockIsHandedBackOutLifo) {
  onFreshThread([] {
    // 40 and 48 bytes share the 48-byte class.
    void *A = pool::allocate(40);
    void *B = pool::allocate(48);
    pool::deallocate(A, 40);
    pool::deallocate(B, 48);
    EXPECT_EQ(pool::retainedBytes(), 96u);
    EXPECT_EQ(pool::allocate(48), B);
    EXPECT_EQ(pool::allocate(33), A);
    EXPECT_EQ(pool::retainedBytes(), 0u);
    pool::deallocate(A, 33);
    pool::deallocate(B, 48);

    // Through the allocator: a vector's buffer comes back to the next
    // vector of the same class.
    const int *Buf;
    {
      std::vector<int, PoolAllocator<int>> V(10, 7);
      Buf = V.data();
    }
    std::vector<int, PoolAllocator<int>> W(12, 1);
    EXPECT_EQ(W.data(), Buf);
  });
}

TEST(NodePoolTest, LargeBlocksBypassThePool) {
  onFreshThread([] {
    void *P = pool::allocate(pool::MaxPooledBytes + 1);
    pool::deallocate(P, pool::MaxPooledBytes + 1);
    EXPECT_EQ(pool::retainedBytes(), 0u);
    void *Q = pool::allocate(pool::MaxPooledBytes);
    pool::deallocate(Q, pool::MaxPooledBytes);
    EXPECT_EQ(pool::retainedBytes(), pool::MaxPooledBytes);
  });
}

TEST(NodePoolTest, RetainedBytesNeverExceedTheCap) {
  onFreshThread([] {
    constexpr size_t Size = 64;
    const size_t N = 2 * pool::RetainCapBytes / Size;
    std::vector<void *> Blocks;
    for (size_t I = 0; I != N; ++I)
      Blocks.push_back(pool::allocate(Size));
    size_t Peak = 0;
    for (void *P : Blocks) {
      pool::deallocate(P, Size);
      Peak = std::max(Peak, pool::retainedBytes());
      ASSERT_LE(pool::retainedBytes(), pool::RetainCapBytes);
    }
    EXPECT_EQ(Peak, pool::RetainCapBytes) << "the cache fills to its cap";
  });
}

TEST(NodePoolTest, CacheIsDrainedAtThreadExit) {
  uint64_t Before = pool::drainedBytes();
  size_t Retained = 0;
  onFreshThread([&Retained] {
    std::vector<void *> Blocks;
    for (size_t I = 0; I != 10; ++I)
      Blocks.push_back(pool::allocate(100));
    for (void *P : Blocks)
      pool::deallocate(P, 100);
    Retained = pool::retainedBytes();
  });
  EXPECT_EQ(Retained, 10 * 112u);
  EXPECT_EQ(pool::drainedBytes() - Before, Retained);
}

TEST(NodePoolTest, BlockAllocatedOnOneThreadIsFreedOnAnother) {
  void *P = nullptr;
  onFreshThread([&P] {
    P = pool::allocate(200);
    std::memset(P, 0xab, 200);
  });
  onFreshThread([P] {
    pool::deallocate(P, 200);
    EXPECT_EQ(pool::retainedBytes(), 208u)
        << "the block joins the freeing thread's list";
    EXPECT_EQ(pool::allocate(208), P);
    pool::deallocate(P, 208);
  });
}

TEST(NodePoolTest, PsStatesBuiltOnOneThreadDieOnAnother) {
  // Successor states share thread and message-list nodes with their
  // parent; a worker builds them and the merging thread drops them.
  auto P = prog("atomic x, y;\n"
                "thread { a := x@rlx; y@rlx := 1; return a; }\n"
                "thread { b := y@rlx; x@rlx := b; return b; }");
  PsConfig Cfg;
  Cfg.PromiseBudget = 1;
  PsMachine M(*P, Cfg);
  PsMachineState Init = M.initialState();
  Init.normalize();
  PsStates Succs;
  onFreshThread([&] {
    for (unsigned Tid = 0; Tid != Init.numThreads(); ++Tid)
      for (PsMachineState &S : M.threadSuccessors(Init, Tid))
        Succs.push_back(std::move(S));
  });
  ASSERT_FALSE(Succs.empty());
  PsMachineState Copy = Succs.back();
  uint64_t Hash = Copy.hash();
  std::string Str = Copy.str();
  onFreshThread([Moved = std::move(Succs)]() mutable { Moved.clear(); });
  // The copy's shared nodes outlive the states that built them.
  EXPECT_EQ(Copy.hash(), Hash);
  EXPECT_EQ(Copy.str(), Str);
}

TEST(NodePoolTest, CrossThreadFreesUnderContention) {
  // Producers fill blocks and hand them over a queue; consumers check and
  // free them, so every consumer's lists hold blocks from every producer.
  const unsigned Pairs = std::max(2u, exec::defaultNumThreads() / 2);
  constexpr unsigned PerProducer = 5000;
  std::mutex Mu;
  std::condition_variable Ready;
  std::deque<std::pair<unsigned char *, size_t>> Queue;
  unsigned ProducersLeft = Pairs;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != Pairs; ++T) {
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I != PerProducer; ++I) {
        size_t Size = 16 + (I * 37 + T) % 900;
        auto *B = static_cast<unsigned char *>(pool::allocate(Size));
        std::memset(B, static_cast<int>(Size & 0xff), Size);
        std::lock_guard<std::mutex> L(Mu);
        Queue.emplace_back(B, Size);
        Ready.notify_one();
      }
      std::lock_guard<std::mutex> L(Mu);
      --ProducersLeft;
      Ready.notify_all();
    });
    Threads.emplace_back([&] {
      for (;;) {
        std::pair<unsigned char *, size_t> Item;
        {
          std::unique_lock<std::mutex> L(Mu);
          Ready.wait(L, [&] { return !Queue.empty() || ProducersLeft == 0; });
          if (Queue.empty())
            return;
          Item = Queue.front();
          Queue.pop_front();
        }
        auto [B, Size] = Item;
        for (size_t I = 0; I != Size; ++I)
          ASSERT_EQ(B[I], static_cast<unsigned char>(Size & 0xff));
        pool::deallocate(B, Size);
        ASSERT_LE(pool::retainedBytes(), pool::RetainCapBytes);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_TRUE(Queue.empty());
}

TEST(NodePoolDeathTest, TouchingARecycledBlockReports) {
#ifndef PSEQ_POOL_ASAN
  GTEST_SKIP() << "recycled blocks are poisoned only under AddressSanitizer";
#else
  EXPECT_DEATH(
      {
        auto *B = static_cast<volatile char *>(pool::allocate(32));
        pool::deallocate(const_cast<char *>(B), 32);
        B[8] = 1;
      },
      "use-after-poison");
#endif
}

//===- support/NodePool.h - Per-thread recycling node pool ------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded, per-thread free-list cache for the small nodes a state-space
/// search builds and drops by the million (DESIGN.md implementation note
/// 10). Requests up to MaxPooledBytes are rounded up to a multiple of
/// ClassBytes; each size class has its own LIFO free list per thread, so a
/// freed block is handed out again by the next request of its class on
/// the same thread, without a trip through malloc. Larger requests go
/// straight to operator new.
///
///  * Ownership: a pooled block is plain operator-new memory. Whichever
///    thread frees it caches it, so a block built on one worker and
///    dropped on another joins the second worker's lists; no list is ever
///    shared, and no lock is taken.
///  * Bound: a thread caches at most RetainCapBytes; a free beyond the cap
///    goes back to operator delete. A thread's cache is drained when the
///    thread exits, and frees after that (later thread-local destructors)
///    bypass it.
///  * Under AddressSanitizer a cached block is poisoned and unpoisoned
///    when it is handed out again, so touching a recycled node still
///    reports (as use-after-poison).
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_SUPPORT_NODEPOOL_H
#define PSEQ_SUPPORT_NODEPOOL_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <unordered_map>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define PSEQ_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PSEQ_POOL_ASAN 1
#endif
#endif

#ifdef PSEQ_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace pseq {
namespace pool {

/// Size-class granularity: requests round up to a multiple of this.
constexpr size_t ClassBytes = 16;
/// Largest pooled request; larger ones bypass the pool.
constexpr size_t MaxPooledBytes = 1024;
constexpr size_t NumClasses = MaxPooledBytes / ClassBytes;
/// Most bytes one thread's free lists may hold at once.
constexpr size_t RetainCapBytes = size_t(1) << 20;

/// One thread's free lists. Constant-initialized and trivially
/// destructible, so it needs no guard on access and stays valid while the
/// thread's other thread-local objects are destroyed.
struct ThreadCache {
  struct Block {
    Block *Next;
  };
  Block *Head[NumClasses];
  size_t Retained;
  /// Fresh until the first free registers the exit-time drain; Drained
  /// once it has run.
  enum : uint8_t { Fresh, Live, Drained } State;
};

extern constinit thread_local ThreadCache Cache;

/// The out-of-line half of deallocate() for block \p P of class \p Class:
/// on a thread's first free, registers the exit-time drain and caches the
/// block; once the thread is drained or its cache is at the cap, frees it.
void freeSlow(void *P, size_t Class) noexcept;

inline size_t classOf(size_t Bytes) {
  return Bytes == 0 ? 0 : (Bytes - 1) / ClassBytes;
}

inline void *allocate(size_t Bytes) {
  if (Bytes > MaxPooledBytes)
    return ::operator new(Bytes);
  size_t C = classOf(Bytes), Size = (C + 1) * ClassBytes;
  ThreadCache &TC = Cache;
  ThreadCache::Block *B = TC.Head[C];
  if (!B)
    return ::operator new(Size);
#ifdef PSEQ_POOL_ASAN
  ASAN_UNPOISON_MEMORY_REGION(B, Size);
#endif
  TC.Head[C] = B->Next;
  TC.Retained -= Size;
  return B;
}

inline void deallocate(void *P, size_t Bytes) noexcept {
  if (Bytes > MaxPooledBytes) {
    ::operator delete(P);
    return;
  }
  size_t C = classOf(Bytes), Size = (C + 1) * ClassBytes;
  ThreadCache &TC = Cache;
  if (TC.State != ThreadCache::Live || TC.Retained + Size > RetainCapBytes) {
    freeSlow(P, C);
    return;
  }
  auto *B = new (P) ThreadCache::Block{TC.Head[C]};
  TC.Head[C] = B;
  TC.Retained += Size;
#ifdef PSEQ_POOL_ASAN
  ASAN_POISON_MEMORY_REGION(B, Size);
#endif
}

/// Bytes the calling thread's free lists hold.
inline size_t retainedBytes() { return Cache.Retained; }

/// Bytes returned to operator delete by thread-exit drains, process-wide.
uint64_t drainedBytes();

} // namespace pool

/// A standard allocator over the calling thread's pool. Stateless, so any
/// two compare equal and a container may free on one thread what it
/// allocated on another.
template <typename T> struct PoolAllocator {
  using value_type = T;
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "pooled blocks carry operator new's default alignment");

  PoolAllocator() = default;
  template <typename U> PoolAllocator(const PoolAllocator<U> &) noexcept {}

  T *allocate(size_t N) {
    return static_cast<T *>(pool::allocate(N * sizeof(T)));
  }
  void deallocate(T *P, size_t N) noexcept {
    pool::deallocate(P, N * sizeof(T));
  }

  template <typename U>
  bool operator==(const PoolAllocator<U> &) const noexcept {
    return true;
  }
};

/// A vector whose buffer comes from the pool.
template <typename T> using PoolVector = std::vector<T, PoolAllocator<T>>;

/// A hash map whose nodes and bucket array come from the pool.
template <typename K, typename V, typename Hash = std::hash<K>>
using PoolMap = std::unordered_map<K, V, Hash, std::equal_to<K>,
                                   PoolAllocator<std::pair<const K, V>>>;

} // namespace pseq

#endif // PSEQ_SUPPORT_NODEPOOL_H

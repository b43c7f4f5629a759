//===- serve/VerdictCache.h - LRU byte-capped verdict cache -----*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The server's cross-request response cache: job fingerprint -> encoded
/// verdict. Unlike MemoContext (append-only, entry-count capped, keeps the
/// engines' internal types), this cache holds small strings, evicts
/// least-recently-used entries past a byte cap (a long-lived server must
/// have bounded memory no matter what clients send), and round-trips
/// through the memo snapshot format so a restarted server starts warm.
///
/// Only deterministic outcomes belong here — the job layer caches
/// ok/rejected and work-budget-bounded verdicts, never timing-dependent
/// (deadline) or transient (crash, overload) ones — so a replayed entry is
/// always the verdict a fresh run would reach.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_SERVE_VERDICTCACHE_H
#define PSEQ_SERVE_VERDICTCACHE_H

#include "memo/Snapshot.h"

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

namespace pseq {
namespace serve {

/// Thread-safe LRU map Fp128 -> string with a byte cap.
class VerdictCache {
public:
  /// \p CapBytes bounds the sum of stored value sizes (plus a fixed
  /// per-entry overhead charge); 0 disables caching entirely.
  explicit VerdictCache(uint64_t CapBytes) : Cap(CapBytes) {}

  /// \returns true and fills \p Value on a hit (refreshing recency).
  /// \p CountMiss false leaves a miss out of the stats, for a probe that a
  /// counted lookup of the same key will repeat (the server's admission
  /// probe, before the worker's).
  bool lookup(const memo::Fp128 &Key, std::string &Value,
              bool CountMiss = true);

  /// Inserts or refreshes \p Key, then evicts LRU entries past the cap.
  /// Values larger than the whole cap are ignored.
  void insert(const memo::Fp128 &Key, const std::string &Value);

  struct CacheStats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
    uint64_t Entries = 0;
    uint64_t Bytes = 0;
  };
  CacheStats stats() const;

  /// Snapshot I/O (memo/Snapshot.h format, atomic on the write side).
  /// Export order is most-recent-first, so a cap-truncated reload keeps
  /// the hottest entries.
  bool save(const std::string &Path, std::string &Err) const;
  /// Loads entries from \p Path (missing/corrupt file: returns false with
  /// \p Err, cache unchanged). \p Loaded counts entries admitted.
  bool load(const std::string &Path, uint64_t &Loaded, std::string &Err);

private:
  struct Entry {
    memo::Fp128 Key;
    std::string Value;
  };

  /// Accounted size of one entry (value bytes + bookkeeping estimate).
  static uint64_t costOf(const std::string &Value) {
    return Value.size() + 64;
  }

  void evictPastCapLocked();

  uint64_t Cap;
  mutable std::mutex Mu;
  std::list<Entry> Lru; ///< front = most recently used
  std::unordered_map<memo::Fp128, std::list<Entry>::iterator, memo::Fp128Hash>
      Index;
  uint64_t Bytes = 0;
  mutable uint64_t Hits = 0, Misses = 0;
  uint64_t Evictions = 0;
};

} // namespace serve
} // namespace pseq

#endif // PSEQ_SERVE_VERDICTCACHE_H

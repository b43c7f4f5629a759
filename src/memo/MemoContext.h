//===- memo/MemoContext.h - Cross-run memoization context ------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared service object behind `PsConfig::Memo` (and the atlas's,
/// pipeline's and server's memo slots). Like the telemetry and guard
/// slots it is borrowed, optional, and thread-safe; a null pointer means
/// "memoization off" and every engine falls back to its exact legacy
/// path. The SEQ enumerator has no memo (DESIGN.md "Memoization").
///
/// A MemoContext owns a small number of typed-by-convention tables keyed
/// by 128-bit fingerprints. Values are type-erased `shared_ptr<const
/// void>`; each call site uses `lookupAs<T>` / `insertAs<T>` with the
/// table that it owns the type of (the memo library itself stays
/// independent of the SEQ/PS^na state types, keeping the library layering
/// acyclic). Every value stored must be a pure function of its key —
/// under that contract first-writer-wins inserts are deterministic no
/// matter which thread or run gets there first.
///
/// Tables:
///  * PsBehaviors   — whole-exploration PS^na behavior sets, keyed by
///                    (program fp, exploration config fp).
///  * AtlasVerdicts — transformation-atlas template verdicts, keyed by
///                    (source fp, target fp, decision config fp).
///  * ServeVerdicts — validation-server verdict strings, keyed by
///                    (program fp(s), pass config salt). The one table
///                    whose values are plain `std::string` by convention,
///                    which is what makes it snapshottable to disk
///                    (memo/Snapshot.h) and warm across server restarts.
///
/// Every key-building function mixes in `PsConfig::ConfigSalt`, which
/// consumers (the optimizer pipeline, the atlas) derive from the active
/// pass configuration — so a shared context can never serve a cache entry
/// recorded under a different pipeline setup.
///
/// Stats are plain atomics mirrored into obs counters by the engines
/// (`memo.hits`, `memo.misses`, `memo.pruned_states`); bench binaries
/// read them directly for the `--json` summary block.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_MEMO_MEMOCONTEXT_H
#define PSEQ_MEMO_MEMOCONTEXT_H

#include "memo/Fingerprint.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace pseq {
namespace memo {

class MemoContext {
public:
  struct Options {
    /// Enables the fingerprint caches (behavior sets, verdicts).
    bool Cache = true;
    /// Enables sleep-set / independence pruning in the explorers.
    bool Prune = true;
    /// Per-table entry cap; inserts beyond it are dropped (lookups still
    /// hit existing entries). Bounds cross-run memory growth.
    size_t MaxEntriesPerTable = 1u << 22;
  };

  enum class Table : unsigned { PsBehaviors = 0, AtlasVerdicts = 1,
                                ServeVerdicts = 2 };

  MemoContext() : MemoContext(Options()) {}
  explicit MemoContext(const Options &Opts);

  const Options &options() const { return Opts; }

  /// \returns the stored value for \p Key, or null. Does NOT touch the
  /// hit/miss stats — call sites count a hit/miss themselves so that
  /// speculative probes don't skew the rates.
  std::shared_ptr<const void> lookup(Table T, const Fp128 &Key) const;

  /// First-writer-wins insert; \returns the value now stored for \p Key
  /// (the existing one if a racing insert won, \p Value otherwise, or
  /// null if the table is at capacity and \p Key is absent).
  std::shared_ptr<const void> insert(Table T, const Fp128 &Key,
                                     std::shared_ptr<const void> Value);

  template <typename T>
  std::shared_ptr<const T> lookupAs(Table Tab, const Fp128 &Key) const {
    return std::static_pointer_cast<const T>(lookup(Tab, Key));
  }

  template <typename T>
  std::shared_ptr<const T> insertAs(Table Tab, const Fp128 &Key,
                                    std::shared_ptr<const T> Value) {
    return std::static_pointer_cast<const T>(
        insert(Tab, Key, std::static_pointer_cast<const void>(Value)));
  }

  uint64_t entryCount(Table T) const;

  /// Shard-level occupancy for the profiling gauges: total entries, the
  /// largest shard, and how many of the table's shards are non-empty (a
  /// skewed fingerprint distribution shows up as MaxShard far above
  /// Entries / ShardsPerTable). Takes each shard lock briefly; intended
  /// for heartbeat probes and end-of-run snapshots, not hot paths.
  struct ShardStats {
    uint64_t Entries = 0;
    uint64_t MaxShard = 0;
    unsigned NonEmptyShards = 0;
    unsigned NumShards = 0;
  };
  ShardStats shardStats(Table T) const;

  /// One exported entry of a string-valued table.
  struct StringEntry {
    Fp128 Key;
    std::string Value;
  };

  /// Dumps every entry of \p T, which must hold `std::string` values by
  /// convention (today: ServeVerdicts only — the other tables store
  /// engine-internal types that are not serializable). Entries come out
  /// sorted by key so a snapshot of the same cache content is
  /// byte-identical regardless of insert order.
  std::vector<StringEntry> exportStrings(Table T) const;

  /// Replays exported entries back into \p T via the normal first-writer-
  /// wins insert path (a live entry beats a snapshot entry). \returns the
  /// number of entries actually inserted.
  uint64_t importStrings(Table T, const std::vector<StringEntry> &Entries);

  // Stats — bumped by the engines, read by bench/test reporting.
  void noteHit(uint64_t N = 1) { Hits.fetch_add(N, std::memory_order_relaxed); }
  void noteMiss(uint64_t N = 1) {
    Misses.fetch_add(N, std::memory_order_relaxed);
  }
  void notePruned(uint64_t N = 1) {
    Pruned.fetch_add(N, std::memory_order_relaxed);
  }
  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  uint64_t pruned() const { return Pruned.load(std::memory_order_relaxed); }

private:
  static constexpr unsigned NumTables = 3;
  static constexpr unsigned ShardsPerTable = 16;

  struct Shard {
    mutable std::mutex Mu;
    std::unordered_map<Fp128, std::shared_ptr<const void>, Fp128Hash> Map;
  };

  const Shard &shardFor(Table T, const Fp128 &Key) const;

  Options Opts;
  std::unique_ptr<Shard[]> Shards; // NumTables * ShardsPerTable
  std::atomic<uint64_t> Sizes[NumTables] = {};
  std::atomic<uint64_t> Hits{0}, Misses{0}, Pruned{0};
};

} // namespace memo
} // namespace pseq

#endif // PSEQ_MEMO_MEMOCONTEXT_H

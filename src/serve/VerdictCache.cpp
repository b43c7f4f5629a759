//===- serve/VerdictCache.cpp - LRU byte-capped verdict cache -------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "serve/VerdictCache.h"

#include "support/AtomicFile.h"

using namespace pseq;
using namespace pseq::serve;

bool VerdictCache::lookup(const memo::Fp128 &Key, std::string &Value,
                          bool CountMiss) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(Key);
  if (It == Index.end()) {
    if (CountMiss)
      ++Misses;
    return false;
  }
  Lru.splice(Lru.begin(), Lru, It->second); // refresh recency
  Value = It->second->Value;
  ++Hits;
  return true;
}

void VerdictCache::insert(const memo::Fp128 &Key, const std::string &Value) {
  if (Cap == 0 || costOf(Value) > Cap)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(Key);
  if (It != Index.end()) {
    Bytes -= costOf(It->second->Value);
    It->second->Value = Value;
    Bytes += costOf(Value);
    Lru.splice(Lru.begin(), Lru, It->second);
  } else {
    Lru.push_front(Entry{Key, Value});
    Index.emplace(Key, Lru.begin());
    Bytes += costOf(Value);
  }
  evictPastCapLocked();
}

void VerdictCache::evictPastCapLocked() {
  while (Bytes > Cap && !Lru.empty()) {
    const Entry &Victim = Lru.back();
    Bytes -= costOf(Victim.Value);
    Index.erase(Victim.Key);
    Lru.pop_back();
    ++Evictions;
  }
}

VerdictCache::CacheStats VerdictCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  CacheStats S;
  S.Hits = Hits;
  S.Misses = Misses;
  S.Evictions = Evictions;
  S.Entries = Lru.size();
  S.Bytes = Bytes;
  return S;
}

bool VerdictCache::save(const std::string &Path, std::string &Err) const {
  std::vector<memo::MemoContext::StringEntry> Entries;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Entries.reserve(Lru.size());
    for (const Entry &E : Lru) // most-recent-first
      Entries.push_back({E.Key, E.Value});
  }
  return support::writeFileAtomic(Path, memo::encodeSnapshot(Entries), &Err);
}

bool VerdictCache::load(const std::string &Path, uint64_t &Loaded,
                        std::string &Err) {
  Loaded = 0;
  std::string FileBytes;
  if (!support::readFileAll(Path, FileBytes, &Err))
    return false;
  std::vector<memo::MemoContext::StringEntry> Entries;
  if (!memo::decodeSnapshot(FileBytes, Entries, Err))
    return false;
  // Entries are most-recent-first in the file; inserting in reverse makes
  // the in-memory recency order match the saved one.
  for (auto It = Entries.rbegin(); It != Entries.rend(); ++It)
    insert(It->Key, It->Value);
  std::lock_guard<std::mutex> Lock(Mu);
  Loaded = Lru.size();
  return true;
}


//===- support/Hashing.h - Hash combining utilities -------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small deterministic hash-combining helpers used by the state-space
/// explorers. All hashes are stable across runs (no ASLR-dependent pointer
/// hashing), which keeps exploration order deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_SUPPORT_HASHING_H
#define PSEQ_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>

namespace pseq {

/// Mixes \p V into the running hash \p Seed (boost-style combiner with a
/// 64-bit avalanche).
inline uint64_t hashCombine(uint64_t Seed, uint64_t V) {
  V *= 0x9e3779b97f4a7c15ULL;
  V ^= V >> 32;
  Seed ^= V + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2);
  return Seed;
}

} // namespace pseq

#endif // PSEQ_SUPPORT_HASHING_H

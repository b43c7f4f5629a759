//===- memo/Fingerprint.h - 128-bit canonical fingerprints ------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// 128-bit fingerprints for canonical machine states, programs, and
/// configurations. A fingerprint is two independently-mixed 64-bit lanes
/// fed the same value stream: the Lo lane uses the repo's boost-style
/// hashCombine, the Hi lane a murmur3-finalizer chain with different
/// constants. Equal fingerprints are treated as equal states by the memo
/// layer; the ~2^-64 per-pair collision rate (squared lanes, correlated
/// only through the 64-bit component hashes fed in) is negligible against
/// the millions of states a bounded exploration visits, and the memo-off
/// path stays exact — the differential tests compare the two.
///
/// Fingerprinting is only meaningful over canonical forms: SEQ states are
/// canonical by construction (dense location vectors, sorted partial
/// memories), PS^na states once every location's timestamps are ranked to
/// their order type (the explorer normalizes its initial state, and every
/// step keeps its successors normalized).
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_MEMO_FINGERPRINT_H
#define PSEQ_MEMO_FINGERPRINT_H

#include "support/Hashing.h"

#include <cstdint>

namespace pseq {

class Program;

namespace memo {

/// Two independently-mixed 64-bit lanes; the all-zero value is reserved as
/// the "empty slot" marker of VisitedSet (see seal()).
struct Fp128 {
  uint64_t Lo = 0;
  uint64_t Hi = 0;

  bool operator==(const Fp128 &O) const { return Lo == O.Lo && Hi == O.Hi; }
  bool operator!=(const Fp128 &O) const { return !(*this == O); }

  bool isZero() const { return Lo == 0 && Hi == 0; }

  /// Fingerprints handed to tables must never be all-zero (VisitedSet's
  /// empty-slot marker); sealing maps the (vanishingly unlikely) zero
  /// value to a fixed nonzero one.
  Fp128 sealed() const { return isZero() ? Fp128{1, 1} : *this; }
};

/// Mixes one 64-bit value into both lanes.
inline void fpMix(Fp128 &F, uint64_t V) {
  F.Lo = hashCombine(F.Lo, V);
  uint64_t H = F.Hi ^ (V + 0x9e3779b97f4a7c15ULL + (F.Hi << 6));
  H *= 0xff51afd7ed558ccdULL;
  H ^= H >> 33;
  H *= 0xc4ceb9fe1a85ec53ULL;
  H ^= H >> 29;
  F.Hi = H;
}

/// A fresh fingerprint chain, domain-separated by \p Tag (so e.g. a state
/// fingerprint can never alias a program fingerprint).
inline Fp128 fpSeed(uint64_t Tag) {
  Fp128 F{0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL};
  fpMix(F, Tag);
  return F;
}

/// Mixes a whole byte string (length-prefixed, so "ab"+"c" != "a"+"bc").
inline void fpMixBytes(Fp128 &F, const char *Data, size_t Len) {
  fpMix(F, Len);
  uint64_t Word = 0;
  unsigned Fill = 0;
  for (size_t I = 0; I != Len; ++I) {
    Word |= static_cast<uint64_t>(static_cast<unsigned char>(Data[I]))
            << (8 * Fill);
    if (++Fill == 8) {
      fpMix(F, Word);
      Word = 0;
      Fill = 0;
    }
  }
  if (Fill)
    fpMix(F, Word);
}

/// Combines two fingerprints (lane-wise mixing; not commutative).
inline Fp128 fpCombine(Fp128 A, const Fp128 &B) {
  fpMix(A, B.Lo);
  fpMix(A, B.Hi);
  return A;
}

struct Fp128Hash {
  size_t operator()(const Fp128 &F) const {
    return static_cast<size_t>(F.Lo ^ (F.Hi * 0x9e3779b97f4a7c15ULL));
  }
};

/// Fingerprint of a program's surface syntax (the printer's output is a
/// complete, parseable rendering, so equal fingerprints mean equal
/// programs up to hash collision). Deterministic across runs.
Fp128 fingerprintProgram(const Program &P);

} // namespace memo
} // namespace pseq

#endif // PSEQ_MEMO_FINGERPRINT_H

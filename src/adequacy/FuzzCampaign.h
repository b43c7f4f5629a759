//===- adequacy/FuzzCampaign.h - Crash-isolated fuzzing ---------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A long-running fuzz campaign over random (source, target) pairs from
/// adequacy/RandomProgram.h. Each pair runs the full adequacy harness
/// (Thm 6.2: SEQ verdicts vs. the PS^na context library), by default in a
/// fork-isolated child (guard/Isolate.h) so a pathological input — a
/// hang, an allocation blow-up, a crash — costs one pair, not the
/// campaign. Per-pair soft budgets (deadline, memory) run inside the
/// child via a ResourceGuard; a hard wall timeout and rlimits back them
/// up from outside.
///
/// Adequacy mismatches are real findings: the driver re-checks them
/// in-process, delta-debugs them to a minimal still-failing pair
/// (guard/Shrink.h), and reports them in CampaignStats::Findings.
///
/// Fault injection (CampaignOptions::Fault) exists to test the campaign
/// itself: it makes one designated child crash, exhaust memory, or hang,
/// and the driver must classify it and carry on. Faults are only injected
/// when the pair actually runs isolated.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_ADEQUACY_FUZZCAMPAIGN_H
#define PSEQ_ADEQUACY_FUZZCAMPAIGN_H

#include <cstdint>
#include <string>
#include <vector>

namespace pseq {

namespace obs {
class Telemetry;
}

/// Fault to inject into one designated child (campaign self-tests).
enum class FaultKind : uint8_t {
  None,
  Crash, ///< abort() — a fatal signal
  Oom,   ///< allocate until the address-space limit trips
  Hang,  ///< spin past the wall timeout (bounded; never a true hang)
};

/// Campaign configuration.
struct CampaignOptions {
  uint64_t Seed = 1;       ///< RNG seed; same seed = same pair stream
  unsigned Count = 100;    ///< pairs to generate and check
  uint64_t DeadlineMs = 0; ///< per-pair soft guard deadline (0 = off)
  uint64_t MemMb = 0;      ///< per-pair soft guard memory budget (0 = off)
  /// Per-pair hard wall timeout for isolated runs. With a Fault injected
  /// it bounds the injected pair alone: the others are bounded by their
  /// step and state budgets, so a loaded host cannot push them into a
  /// deadline and the self-test's tally stays deterministic.
  uint64_t WallMs = 5000;
  uint64_t TotalMs = 0;    ///< whole-campaign wall budget (0 = off)
  bool Isolate = true;     ///< fork-isolate pairs when the host supports it
  bool ShrinkFailures = true; ///< delta-debug mismatches before reporting
  FaultKind Fault = FaultKind::None; ///< self-test fault injection
  unsigned InjectAt = 0;             ///< pair index receiving the fault
  bool Verbose = false;              ///< per-pair stderr lines
  /// Memoize within each pair's adequacy check (a fresh MemoContext per
  /// pair: fork-isolated children cannot share cross-pair state anyway,
  /// and random pairs rarely repeat). --no-memo turns this off to compare
  /// verdict streams against the exact unmemoized paths.
  bool UseMemo = true;
  /// Optional telemetry (borrowed): per-outcome counters plus a
  /// "fuzz.pair" instant event per pair. Only the parent writes to it —
  /// isolated children run without telemetry (their writes would die with
  /// them anyway).
  obs::Telemetry *Telem = nullptr;
  /// With Telem set, the Chrome trace (obs/TraceExport.h) is rewritten
  /// here after every crashed, oom or deadline pair, its run.final naming
  /// that outcome, so the record survives a parent that dies on a later
  /// pair. The closing trace is the driver's to write.
  std::string TraceOutPath;
  /// Where pairs come from. "" (or "random") draws random single-thread
  /// straight-line pairs from adequacy/RandomProgram.h; "realworld" seeds
  /// each pair from a RealWorld protocol case (litmus/RealWorld.h),
  /// pairing the protocol text against a token-level mutant (a weakened
  /// or strengthened access mode, a tweaked store constant, a duplicated
  /// store — the same bug shapes the corpus's curated mutants inject).
  /// Seeded pairs are multi-threaded spin-loop programs, so the SEQ lane
  /// runs at reduced enumeration budgets and the pair inherits the seed
  /// case's PS^na budgets and value domain; findings are not shrunk (the
  /// delta-debugger's predicate is single-thread-shaped).
  std::string SeedCorpus;
};

/// The corpora a CLI `--seed-corpus` flag may request, for usage
/// messages.
constexpr const char *campaignSeedCorpusList() {
  return "random (default), realworld";
}

/// Validates a CLI `--seed-corpus` value. "" and "random" mean the
/// default random-pair stream; callers should normalize "random" to ""
/// before storing into CampaignOptions::SeedCorpus.
inline bool campaignSeedCorpusKnown(const std::string &Name) {
  return Name.empty() || Name == "random" || Name == "realworld";
}

/// Per-outcome counts plus the findings. Every generated pair lands in
/// exactly one outcome bucket.
struct CampaignStats {
  unsigned Pairs = 0;    ///< pairs actually run
  unsigned Agree = 0;    ///< adequacy agreed (exhaustively or bounded-clean)
  unsigned Mismatch = 0; ///< adequacy disagreement — a real finding
  unsigned Bounded = 0;  ///< in-child guard budget truncated the verdict
  unsigned Deadline = 0; ///< child hit the wall/CPU timeout
  unsigned Oom = 0;      ///< child hit the memory limit
  unsigned Crash = 0;    ///< child died of a signal / uncaught exception
  unsigned Isolated = 0; ///< pairs that ran fork-isolated
  bool TimedOut = false; ///< TotalMs ended the campaign early
  /// SIGINT/SIGTERM (guard/Signals) ended the campaign early. Pairs
  /// already classified keep their buckets; the driver flushes telemetry
  /// and exits with guard::GracefulSignalExit.
  bool Interrupted = false;
  /// One entry per mismatch: the mutation description plus the (shrunk
  /// when enabled) failing pair.
  std::vector<std::string> Findings;

  /// Campaign health: no finding and no unclassified malfunction.
  bool clean() const { return Mismatch == 0 && Crash == 0; }
};

/// Runs the campaign and reports per-outcome counts.
CampaignStats runFuzzCampaign(const CampaignOptions &Opts);

} // namespace pseq

#endif // PSEQ_ADEQUACY_FUZZCAMPAIGN_H

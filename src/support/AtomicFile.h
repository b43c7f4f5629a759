//===- support/AtomicFile.h - Crash-safe whole-file writes ------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crash-safe replacement for the "open, stream, hope" pattern behind every
/// whole-file JSON artifact (--json reports, --trace-out Perfetto dumps,
/// memo snapshots, BENCH_SERVER.json). The content is written to a
/// temporary sibling (`<path>.tmp.<pid>`) and renamed over the target, so
/// a process killed mid-write leaves either the previous complete file or
/// no file — never a truncated artifact that downstream tooling half
/// parses. On hosts without an atomic rename the implementation degrades
/// to a plain write (still a single buffered write call).
///
/// The heartbeat's JSONL file is deliberately not routed through this: it
/// is an append stream whose crash contract is "a valid prefix of lines",
/// maintained by writing and flushing one whole line per tick.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_SUPPORT_ATOMICFILE_H
#define PSEQ_SUPPORT_ATOMICFILE_H

#include <string>
#include <string_view>

namespace pseq {
namespace support {

/// Writes \p Contents to \p Path atomically (temp file + rename). On
/// failure returns false and, when \p Err is non-null, stores a message
/// naming the failing step. The temp file is unlinked on any failure the
/// process survives; a killed process can leave a `<path>.tmp.<pid>`
/// sibling behind, which later successful writes never read.
bool writeFileAtomic(const std::string &Path, std::string_view Contents,
                     std::string *Err = nullptr);

/// Reads the whole file at \p Path into \p Out. Returns false (with a
/// message in \p Err when non-null) when the file cannot be opened or
/// read. Companion for snapshot/report round-trips.
bool readFileAll(const std::string &Path, std::string &Out,
                 std::string *Err = nullptr);

} // namespace support
} // namespace pseq

#endif // PSEQ_SUPPORT_ATOMICFILE_H

//===- atlas/Atlas.h - The transformation soundness atlas -------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An exhaustive map of the two-instruction transformation space over the
/// access-mode grid (na/rlx/acq loads, na/rlx/rel stores, the four atomic
/// RMW mode combinations, the four fence modes): every reorder,
/// elimination, introduction, and mode-weakening template is instantiated
/// as a concrete
/// (source, target) program pair (lang/TemplateBuilder.h) and decided by
/// the repo's own checkers —
///
///   * SEQ: the Simple ⊑ (Def 2.4) and Advanced ⊑w (Def 3.3) procedures;
///   * PS^na cross-validation: Def 5.3 outcome inclusion under every
///     context of the adequacy library (Thm 6.2's direction).
///
/// Verdicts: `Sound` (⊑w holds, so by Thm 6.2 the transformation is a
/// contextual refinement), `Unsound` (⊑w fails AND a PS^na context
/// witnesses the difference — a transformation no correct optimizer may
/// perform), and `SeqIncomplete` (⊑w fails but no library context
/// distinguishes the programs; the SEQ checkers are sound, not complete —
/// label-changing rewrites such as fence weakening land here, and the
/// weakening pass justifies itself from exactly this PS^na column). An
/// entry with ⊑w accepted but a PS^na witness is counted separately as a
/// mismatch. A mismatch is either a checker soundness bug or the PS^na
/// explorer's one documented under-approximation: it models PS2.1 capped
/// certification without reservations (psna/Machine.cpp), so a source can
/// never certify a promise fulfilled by an adjacent RMW, and reordering a
/// silent access past an RMW loses a source behavior the paper's full
/// model has. The golden table pins the exact mismatch set (today: the
/// two na-load/RMW reorders), and CI gates on it never changing.
///
/// The rendered table is a golden doc (tests/golden/atlas.md) and every
/// non-Sound entry doubles as a validator negative test.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_ATLAS_ATLAS_H
#define PSEQ_ATLAS_ATLAS_H

#include "lang/TemplateBuilder.h"
#include "psna/Machine.h"
#include "seq/SeqMachine.h"

#include <string>
#include <vector>

namespace pseq {
namespace atlas {

/// Template category. `Weaken` covers in-place access-mode and fence-mode
/// weakenings (acq→rlx, rel→rlx, sc→acqrel, ...): label-changing, so SEQ
/// rejects them all; the PS^na column records which are context-safe —
/// the justification rows the weakening pass (opt/WeakenPass.h) cites.
enum class Category : uint8_t { Reorder, Eliminate, Introduce, Weaken };

const char *categoryName(Category C);

/// One enumerated template, pre-decision.
struct AtlasTemplate {
  std::string Id; ///< "reorder/x@na:=1--r1:=x@acq" — stable across runs
  Category Cat = Category::Reorder;
  std::vector<AtomSpec> Src, Tgt;
};

/// How an entry was decided.
enum class AtlasVerdict : uint8_t {
  Sound,         ///< ⊑w holds (certified; contextual by Thm 6.2)
  SeqIncomplete, ///< ⊑w fails, no PS^na context separates the programs
  Unsound,       ///< ⊑w fails and a PS^na context witnesses the change
};

const char *atlasVerdictName(AtlasVerdict V);

/// One decided row of the atlas.
struct AtlasEntry {
  std::string Id;
  Category Cat = Category::Reorder;
  std::vector<AtomSpec> Src, Tgt;
  std::string SrcText, TgtText;
  bool SeqSimple = false;   ///< Def 2.4 ⊑ holds
  bool SeqAdvanced = false; ///< Def 3.3 ⊑w holds
  bool Psna = false;        ///< Def 5.3 holds under every library context
  bool Bounded = false;     ///< some underlying check was budget-truncated
  AtlasVerdict Verdict = AtlasVerdict::Unsound;
  /// ⊑w accepted but a PS^na context rejected — a checker soundness bug
  /// unless explained by the explorer's unmodeled-reservation gap (see the
  /// file comment). Pinned row-by-row in the golden table.
  bool Mismatch = false;
};

/// Decision configuration. The defaults decide the whole atlas in seconds:
/// a binary value domain (template constants are 0/1; RMWs may push 2 into
/// memory, which the domain need not enumerate) and the stock SEQ/PS^na
/// budgets.
struct AtlasOptions {
  AtlasOptions();
  SeqConfig Seq;
  PsConfig Ps;
  /// Worker count for the template fan-out (0 = all hardware threads).
  unsigned NumThreads;
  obs::Telemetry *Telem = nullptr;
  guard::ResourceGuard *Guard = nullptr;
  /// Optional verdict cache (Table::AtlasVerdicts), shared with the PS^na
  /// explorer's behavior-set cache. Keys mix both configs — including
  /// Ps.ConfigSalt — so sweeps under different setups never exchange
  /// verdicts.
  memo::MemoContext *Memo = nullptr;
};

/// The decided atlas plus fold-level tallies.
struct AtlasResult {
  std::vector<AtlasEntry> Entries; ///< enumeration order (deterministic)
  unsigned Sound = 0;
  unsigned SeqIncomplete = 0;
  unsigned Unsound = 0;
  unsigned Mismatches = 0;     ///< pinned exactly by the CI baseline gate
  unsigned BoundedEntries = 0; ///< entries with any truncated sub-check

  /// The validator negative-test corpus: every entry the SEQ checkers
  /// reject (Unsound + SeqIncomplete). ⊑ ⊆ ⊑w and simulation ⊆ ⊑w, so
  /// all three validator methods must reject each of these pairs.
  unsigned negativeEntries() const { return Unsound + SeqIncomplete; }
};

/// Enumerates every template of the three categories over the mode grid.
/// Deterministic; ids are unique.
std::vector<AtlasTemplate> enumerateTemplates();

/// Decides one template: instantiates both sides over a shared layout and
/// runs the SEQ checkers plus the PS^na context sweep (adequacy harness).
AtlasEntry decideTemplate(const AtlasTemplate &T, const AtlasOptions &Opts);

/// Enumerates and decides the whole atlas, fanning templates out across
/// the pool. Emits atlas.* counters and the atlas.build span through
/// Opts.Telem; the CI baseline gate reads those counters from the run's
/// run.final record (tools/check_bench_baseline.py --group atlas).
AtlasResult buildAtlas(const AtlasOptions &Opts = AtlasOptions());

/// Renders the golden markdown table (tests/golden/atlas.md).
std::string renderAtlasMarkdown(const AtlasResult &R);

} // namespace atlas
} // namespace pseq

#endif // PSEQ_ATLAS_ATLAS_H

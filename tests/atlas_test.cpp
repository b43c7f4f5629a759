//===- tests/atlas_test.cpp - The transformation atlas --------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// The atlas (src/atlas) decided end to end: grid coverage, the golden
// markdown table, the atlas-minted validator negative corpus (every
// SEQ-rejected entry must be rejected by all three validateTransform
// methods), the pinned PS^na mismatch set (unmodeled-reservation gap),
// and the fence-mode ladders the satellite audit of
// SlfAnalysis/LlfAnalysis/DseAnalysis locked in.
//
//===----------------------------------------------------------------------===//

#include "atlas/Atlas.h"

#include "memo/MemoContext.h"
#include "opt/Validator.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace pseq;
using namespace pseq::atlas;

namespace {

/// One shared build: ~320 decisions take tens of seconds on one core, so
/// every test reads the same result. Memoization stays on, as in
/// atlas_report, so the PS^na explorations share one behavior-set cache.
const AtlasResult &theAtlas() {
  static memo::MemoContext Memo;
  static AtlasResult R = [] {
    AtlasOptions Opts;
    Opts.Memo = &Memo;
    return buildAtlas(Opts);
  }();
  return R;
}

/// Exact-path golden compare (the table is a .md doc, not a .expected
/// snapshot, so matchesGolden()'s suffix convention does not apply).
::testing::AssertionResult matchesGoldenFile(const std::string &Path,
                                             const std::string &Actual) {
  if (updatingGolden()) {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return ::testing::AssertionFailure() << "cannot write " << Path;
    bool Ok =
        std::fwrite(Actual.data(), 1, Actual.size(), F) == Actual.size();
    Ok &= std::fclose(F) == 0;
    return Ok ? ::testing::AssertionSuccess()
              : ::testing::AssertionFailure() << "short write to " << Path;
  }
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return ::testing::AssertionFailure()
           << "missing golden file " << Path
           << " (run with --update-golden to create it)";
  std::string Expected;
  char Buf[4096];
  for (size_t R; (R = std::fread(Buf, 1, sizeof(Buf), F)) != 0;)
    Expected.append(Buf, R);
  std::fclose(F);
  if (Expected == Actual)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "golden mismatch for " << Path << ":\n"
         << renderGoldenDiff(Expected, Actual)
         << "  (re-run with --update-golden to regenerate)";
}

} // namespace

//===----------------------------------------------------------------------===
// Enumeration: the grid is covered and stable
//===----------------------------------------------------------------------===

TEST(AtlasEnum, CoversTheModeGrid) {
  std::vector<AtlasTemplate> Ts = enumerateTemplates();

  std::map<Category, unsigned> PerCat;
  std::set<std::string> Ids;
  for (const AtlasTemplate &T : Ts) {
    ++PerCat[T.Cat];
    EXPECT_TRUE(Ids.insert(T.Id).second) << "duplicate id " << T.Id;
    EXPECT_FALSE(templateMixesModes(T.Src, T.Tgt)) << T.Id;
  }

  // Pinned grid sizes (after the no-mixing filter): 10 access shapes per
  // location give 100 same-loc + 100 cross-loc + 80 access/fence + 12
  // fence-pair reorders minus the mixed-mode combinations; eliminations
  // are RAR + SLF + WAW + fence pairs + fence-after-na-load; and so on.
  // A change here means the grid itself changed — update the golden table
  // and this pin together.
  EXPECT_EQ(PerCat[Category::Reorder], 260u);
  EXPECT_EQ(PerCat[Category::Eliminate], 35u);
  EXPECT_EQ(PerCat[Category::Introduce], 14u);
  EXPECT_EQ(PerCat[Category::Weaken], 11u);
  EXPECT_EQ(Ts.size(), 320u);

  // Spot-check rows the passes and docs cite by id.
  EXPECT_TRUE(Ids.count("weaken/fence@sc -> fence@acqrel"));
  EXPECT_TRUE(Ids.count("weaken/r1:=x@acq -> r1:=x@rlx"));
  EXPECT_TRUE(Ids.count(
      "eliminate/fence@acqrel; fence@acqrel -> fence@acqrel; skip"));
  EXPECT_TRUE(Ids.count("eliminate/r1:=x@na; fence@sc -> r1:=x@na; skip"));
  EXPECT_TRUE(
      Ids.count("reorder/r1:=x@na; fence@acqrel -> fence@acqrel; r1:=x@na"));
}

//===----------------------------------------------------------------------===
// The decided atlas
//===----------------------------------------------------------------------===

TEST(AtlasDecide, TalliesAreConsistent) {
  const AtlasResult &R = theAtlas();
  ASSERT_EQ(R.Entries.size(), 320u);
  EXPECT_EQ(R.Sound + R.SeqIncomplete + R.Unsound, R.Entries.size());
  EXPECT_EQ(R.negativeEntries(), R.SeqIncomplete + R.Unsound);
  EXPECT_EQ(R.BoundedEntries, 0u) << "atlas budgets must decide exhaustively";
  for (const AtlasEntry &E : R.Entries) {
    // ⊑ ⊆ ⊑w (Prop: simple refinement implies advanced).
    if (E.SeqSimple)
      EXPECT_TRUE(E.SeqAdvanced) << E.Id;
    // Unsound means a context witnessed a difference, so PS^na failed.
    if (E.Verdict == AtlasVerdict::Unsound)
      EXPECT_FALSE(E.Psna) << E.Id;
    if (E.Verdict == AtlasVerdict::SeqIncomplete)
      EXPECT_TRUE(E.Psna && !E.SeqAdvanced) << E.Id;
  }
}

TEST(AtlasDecide, GoldenTable) {
  EXPECT_TRUE(matchesGoldenFile(std::string(PSEQ_GOLDEN_DIR) + "/atlas.md",
                                renderAtlasMarkdown(theAtlas())));
}

// Every ⊑w-accepted-but-PS^na-rejected row must be explained by the
// explorer's documented under-approximation: PS2.1 certification runs
// against capped memory without reservations (psna/Machine.cpp), so a
// source thread can never certify a promise fulfilled by its own adjacent
// RMW — exactly the behavior needed to match an RMW hoisted above a
// silent access. Anything outside that shape is a genuine checker
// soundness bug and must fail here.
TEST(AtlasDecide, MismatchRowsArePinnedToTheReservationGap) {
  const AtlasResult &R = theAtlas();
  std::set<std::string> Found;
  for (const AtlasEntry &E : R.Entries) {
    if (!E.Mismatch)
      continue;
    Found.insert(E.Id);
    EXPECT_EQ(E.Verdict, AtlasVerdict::Sound) << E.Id;
    EXPECT_TRUE(E.SeqAdvanced && !E.Psna) << E.Id;
    bool SrcHasRmw = false;
    for (const AtomSpec &A : E.Src)
      SrcHasRmw |= A.K == AtomSpec::Kind::Rmw;
    EXPECT_TRUE(SrcHasRmw)
        << E.Id << ": mismatch without an RMW in the source cannot be the "
        << "reservation gap — investigate as a checker soundness bug";
  }
  const std::set<std::string> Pinned = {
      "reorder/r1:=x@na; r2:=fadd(y)@rlx,rlx -> r2:=fadd(y)@rlx,rlx; "
      "r1:=x@na",
      "reorder/r1:=x@na; r2:=fadd(y)@acq,rlx -> r2:=fadd(y)@acq,rlx; "
      "r1:=x@na",
  };
  EXPECT_EQ(Found, Pinned);
  EXPECT_EQ(R.Mismatches, Pinned.size());
}

// The atlas-minted negative corpus: all three per-thread SEQ validator
// methods must reject every entry the atlas decided against (⊑ ⊆ ⊑w and
// simulation ⊆ ⊑w, so a ⊑w rejection propagates to all of them). This is
// the validator's fault-injection suite grown to 280+ cases for free.
TEST(AtlasDecide, NegativeEntriesRejectEverySeqMethod) {
  const AtlasResult &R = theAtlas();
  SeqConfig Cfg;
  Cfg.Domain = ValueDomain::binary();
  unsigned Checked = 0;
  for (const AtlasEntry &E : R.Entries) {
    if (E.Verdict == AtlasVerdict::Sound)
      continue;
    TemplateLayout L = templateLayout(E.Src, E.Tgt);
    std::unique_ptr<Program> Src = buildTemplateProgram(E.Src, L);
    std::unique_ptr<Program> Tgt = buildTemplateProgram(E.Tgt, L);
    for (ValidationMethod M :
         {ValidationMethod::Simple, ValidationMethod::Advanced,
          ValidationMethod::Simulation}) {
      ValidationResult V = validateTransform(*Src, *Tgt, Cfg, M);
      EXPECT_FALSE(V.Ok)
          << E.Id << " accepted by " << validationMethodName(M);
      EXPECT_FALSE(V.Bounded) << E.Id;
    }
    ++Checked;
  }
  EXPECT_EQ(Checked, R.negativeEntries());
  EXPECT_GE(Checked, 200u) << "negative corpus unexpectedly small";
}

// The weakening pass cites atlas rows as its justification: every weaken
// row and the two elimination families it leans on (adjacent fence pairs,
// fence after a non-atomic load) must carry PS^na = yes — SEQ rejects the
// label change, no library context observes it. None may be unsound.
TEST(AtlasDecide, WeakenJustificationRowsAreContextSafe) {
  const AtlasResult &R = theAtlas();
  unsigned WeakenRows = 0, FenceElims = 0;
  for (const AtlasEntry &E : R.Entries) {
    bool FencePairElim =
        E.Cat == Category::Eliminate &&
        E.Src.size() == 2 && E.Src[0].K == AtomSpec::Kind::Fence;
    bool FenceAfterLoadElim =
        E.Cat == Category::Eliminate && E.Src.size() == 2 &&
        E.Src[0].K == AtomSpec::Kind::Load &&
        E.Src[1].K == AtomSpec::Kind::Fence;
    if (E.Cat == Category::Weaken)
      ++WeakenRows;
    else if (FencePairElim || FenceAfterLoadElim)
      ++FenceElims;
    else
      continue;
    EXPECT_TRUE(E.Psna) << E.Id << " is not context-safe";
    EXPECT_NE(E.Verdict, AtlasVerdict::Unsound) << E.Id;
  }
  EXPECT_EQ(WeakenRows, 11u);
  EXPECT_EQ(FenceElims, 16u + 4u);
}

// Fence-mode ladder rows the satellite audit pinned: a combined fence
// must behave as both halves in every analysis. The DSE row is the bug
// this PR fixed — the backward walk used to apply the release half first,
// leaving a dead-looking store eliminable across an acqrel/sc fence.
TEST(AtlasDecide, FenceLadderRows) {
  const AtlasResult &R = theAtlas();
  auto entry = [&](const std::string &Id) -> const AtlasEntry & {
    for (const AtlasEntry &E : R.Entries)
      if (E.Id == Id)
        return E;
    ADD_FAILURE() << "missing atlas row " << Id;
    static AtlasEntry Dummy;
    return Dummy;
  };
  // Dropping the second fence of an identical pair changes the label
  // sequence, so no SEQ method certifies it — but no context observes it
  // either: the exact seq-incomplete shape the weakening pass's R1 cites.
  const AtlasEntry &ScSc =
      entry("eliminate/fence@sc; fence@sc -> fence@sc; skip");
  EXPECT_EQ(ScSc.Verdict, AtlasVerdict::SeqIncomplete);
  EXPECT_TRUE(ScSc.Psna);
  const AtlasEntry &ArAr =
      entry("eliminate/fence@acqrel; fence@acqrel -> fence@acqrel; skip");
  EXPECT_EQ(ArAr.Verdict, AtlasVerdict::SeqIncomplete);
  EXPECT_TRUE(ArAr.Psna);
  // Reordering a non-atomic load past an acqrel fence is not ⊑w-certified
  // in either direction (the acquire half blocks one, the release half
  // the other).
  EXPECT_FALSE(
      entry("reorder/r1:=x@na; fence@acqrel -> fence@acqrel; r1:=x@na")
          .SeqAdvanced);
  EXPECT_FALSE(
      entry("reorder/fence@acqrel; r1:=x@na -> r1:=x@na; fence@acqrel")
          .SeqAdvanced);
}

int main(int argc, char **argv) {
  pseq::handleUpdateGoldenFlag(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}

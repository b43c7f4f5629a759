//===- atlas/Atlas.cpp - The transformation soundness atlas ---------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "atlas/Atlas.h"

#include "adequacy/Harness.h"
#include "exec/ThreadPool.h"
#include "guard/Guard.h"
#include "memo/MemoContext.h"
#include "obs/Telemetry.h"

#include <algorithm>
#include <memory>

using namespace pseq;
using namespace pseq::atlas;

const char *atlas::categoryName(Category C) {
  switch (C) {
  case Category::Reorder:
    return "reorder";
  case Category::Eliminate:
    return "eliminate";
  case Category::Introduce:
    return "introduce";
  case Category::Weaken:
    return "weaken";
  }
  return "?";
}

const char *atlas::atlasVerdictName(AtlasVerdict V) {
  switch (V) {
  case AtlasVerdict::Sound:
    return "sound";
  case AtlasVerdict::SeqIncomplete:
    return "seq-incomplete";
  case AtlasVerdict::Unsound:
    return "unsound";
  }
  return "?";
}

AtlasOptions::AtlasOptions() : NumThreads(exec::defaultNumThreads()) {
  // Template constants are 0/1; the binary domain keeps the adversary's
  // fresh-value enumeration (and with it the whole sweep) small without
  // losing any distinction the templates can exhibit.
  Seq.Domain = ValueDomain::binary();
  Ps.Domain = ValueDomain::binary();
}

namespace {

/// The ten access shapes of the mode grid on one location: three load
/// modes, three store modes, the four atomic RMW mode pairs.
std::vector<AtomSpec> accessAtoms(unsigned Loc, unsigned RegSlot,
                                  int64_t StoreVal) {
  std::vector<AtomSpec> Out;
  for (ReadMode M : {ReadMode::NA, ReadMode::RLX, ReadMode::ACQ})
    Out.push_back(AtomSpec::load(Loc, M, RegSlot));
  for (WriteMode M : {WriteMode::NA, WriteMode::RLX, WriteMode::REL})
    Out.push_back(AtomSpec::store(Loc, M, StoreVal));
  for (ReadMode RM : {ReadMode::RLX, ReadMode::ACQ})
    for (WriteMode WM : {WriteMode::RLX, WriteMode::REL})
      Out.push_back(AtomSpec::rmw(Loc, RM, WM, RegSlot));
  return Out;
}

constexpr FenceMode AllFences[] = {FenceMode::ACQ, FenceMode::REL,
                                   FenceMode::ACQREL, FenceMode::SC};

AtlasTemplate makeTemplate(Category Cat, std::vector<AtomSpec> Src,
                           std::vector<AtomSpec> Tgt) {
  AtlasTemplate T;
  T.Cat = Cat;
  T.Id = std::string(categoryName(Cat)) + "/" + renderAtoms(Src) + " -> " +
         renderAtoms(Tgt);
  T.Src = std::move(Src);
  T.Tgt = std::move(Tgt);
  return T;
}

void addReorders(std::vector<AtlasTemplate> &Out) {
  auto reorder = [&](const AtomSpec &A, const AtomSpec &B) {
    Out.push_back(makeTemplate(Category::Reorder, {A, B}, {B, A}));
  };
  // Distinct register slots and store values keep both instructions
  // observable through the return encoding / final memory.
  std::vector<AtomSpec> OnX1 = accessAtoms(0, /*RegSlot=*/0, /*StoreVal=*/1);
  std::vector<AtomSpec> OnX2 = accessAtoms(0, /*RegSlot=*/1, /*StoreVal=*/0);
  std::vector<AtomSpec> OnY2 = accessAtoms(1, /*RegSlot=*/1, /*StoreVal=*/0);
  for (const AtomSpec &A : OnX1) // same location: 10 x 10
    for (const AtomSpec &B : OnX2)
      reorder(A, B);
  for (const AtomSpec &A : OnX1) // distinct locations: 10 x 10
    for (const AtomSpec &B : OnY2)
      reorder(A, B);
  for (const AtomSpec &A : OnX1) // access across a fence, both directions
    for (FenceMode F : AllFences) {
      reorder(A, AtomSpec::fence(F));
      reorder(AtomSpec::fence(F), A);
    }
  for (FenceMode F1 : AllFences) // fence pairs (same-mode swap is identity)
    for (FenceMode F2 : AllFences)
      if (F1 != F2)
        reorder(AtomSpec::fence(F1), AtomSpec::fence(F2));
}

void addEliminations(std::vector<AtlasTemplate> &Out) {
  auto elim = [&](std::vector<AtomSpec> Src, std::vector<AtomSpec> Tgt) {
    Out.push_back(
        makeTemplate(Category::Eliminate, std::move(Src), std::move(Tgt)));
  };
  for (ReadMode M1 : {ReadMode::NA, ReadMode::RLX, ReadMode::ACQ})
    for (ReadMode M2 : {ReadMode::NA, ReadMode::RLX, ReadMode::ACQ})
      // Read-after-read: the second load becomes a register copy.
      elim({AtomSpec::load(0, M1, 0), AtomSpec::load(0, M2, 1)},
           {AtomSpec::load(0, M1, 0), AtomSpec::move(1, 0)});
  for (WriteMode M1 : {WriteMode::NA, WriteMode::RLX, WriteMode::REL})
    for (ReadMode M2 : {ReadMode::NA, ReadMode::RLX, ReadMode::ACQ})
      // Store-to-load forwarding: the load becomes the stored constant.
      elim({AtomSpec::store(0, M1, 1), AtomSpec::load(0, M2, 0)},
           {AtomSpec::store(0, M1, 1), AtomSpec::imm(0, 1)});
  for (WriteMode M1 : {WriteMode::NA, WriteMode::RLX, WriteMode::REL})
    for (WriteMode M2 : {WriteMode::NA, WriteMode::RLX, WriteMode::REL})
      // Write-after-write: the overwritten first store is dropped.
      elim({AtomSpec::store(0, M1, 1), AtomSpec::store(0, M2, 0)},
           {AtomSpec::skip(), AtomSpec::store(0, M2, 0)});
  for (FenceMode F1 : AllFences)
    for (FenceMode F2 : AllFences)
      // Adjacent fence pair: the second fence is dropped.
      elim({AtomSpec::fence(F1), AtomSpec::fence(F2)},
           {AtomSpec::fence(F1), AtomSpec::skip()});
  for (FenceMode F : AllFences)
    // A lone fence after a non-atomic load is dropped.
    elim({AtomSpec::load(0, ReadMode::NA, 0), AtomSpec::fence(F)},
         {AtomSpec::load(0, ReadMode::NA, 0), AtomSpec::skip()});
}

void addIntroductions(std::vector<AtlasTemplate> &Out) {
  // Introduced instruction after a fixed anchor; introduced loads/RMWs
  // land in the scratch register r3 so the observation encoding is
  // untouched (the interesting question is the memory/label effect).
  AtomSpec Anchor = AtomSpec::load(0, ReadMode::NA, 0);
  auto intro = [&](const AtomSpec &A) {
    Out.push_back(makeTemplate(Category::Introduce, {Anchor, AtomSpec::skip()},
                               {Anchor, A}));
  };
  for (ReadMode M : {ReadMode::NA, ReadMode::RLX, ReadMode::ACQ})
    intro(AtomSpec::load(1, M, 2));
  for (WriteMode M : {WriteMode::NA, WriteMode::RLX, WriteMode::REL})
    intro(AtomSpec::store(1, M, 1));
  for (ReadMode RM : {ReadMode::RLX, ReadMode::ACQ})
    for (WriteMode WM : {WriteMode::RLX, WriteMode::REL})
      intro(AtomSpec::rmw(1, RM, WM, 2));
  for (FenceMode F : AllFences)
    intro(AtomSpec::fence(F));
}

void addWeakenings(std::vector<AtlasTemplate> &Out) {
  // In-place mode weakenings, one instruction per side. Weakenings into
  // non-atomic modes are excluded: they would flip the location's declared
  // atomicity, and refinement requires one shared layout.
  auto weaken = [&](const AtomSpec &S, const AtomSpec &T) {
    Out.push_back(makeTemplate(Category::Weaken, {S}, {T}));
  };
  weaken(AtomSpec::load(0, ReadMode::ACQ, 0),
         AtomSpec::load(0, ReadMode::RLX, 0));
  weaken(AtomSpec::store(0, WriteMode::REL, 1),
         AtomSpec::store(0, WriteMode::RLX, 1));
  // RMW halves, one at a time and both together.
  weaken(AtomSpec::rmw(0, ReadMode::ACQ, WriteMode::REL, 0),
         AtomSpec::rmw(0, ReadMode::RLX, WriteMode::REL, 0));
  weaken(AtomSpec::rmw(0, ReadMode::ACQ, WriteMode::REL, 0),
         AtomSpec::rmw(0, ReadMode::ACQ, WriteMode::RLX, 0));
  weaken(AtomSpec::rmw(0, ReadMode::ACQ, WriteMode::RLX, 0),
         AtomSpec::rmw(0, ReadMode::RLX, WriteMode::RLX, 0));
  weaken(AtomSpec::rmw(0, ReadMode::RLX, WriteMode::REL, 0),
         AtomSpec::rmw(0, ReadMode::RLX, WriteMode::RLX, 0));
  // Fence-mode weakenings (SC and ACQREL both lower to rel;acq, so the
  // first row is the checkers' view of their equivalence).
  weaken(AtomSpec::fence(FenceMode::SC), AtomSpec::fence(FenceMode::ACQREL));
  weaken(AtomSpec::fence(FenceMode::SC), AtomSpec::fence(FenceMode::ACQ));
  weaken(AtomSpec::fence(FenceMode::SC), AtomSpec::fence(FenceMode::REL));
  weaken(AtomSpec::fence(FenceMode::ACQREL), AtomSpec::fence(FenceMode::ACQ));
  weaken(AtomSpec::fence(FenceMode::ACQREL), AtomSpec::fence(FenceMode::REL));
}

/// Cached decision bits for one template (Table::AtlasVerdicts). Pure
/// function of the memo key (program pair + decision config).
struct AtlasVerdictRec {
  bool SeqSimple = false;
  bool SeqAdvanced = false;
  bool Psna = false;
  bool Bounded = false;
};

memo::Fp128 verdictKey(const Program &Src, const Program &Tgt,
                       const AtlasOptions &Opts) {
  memo::Fp128 K = memo::fpSeed(/*Tag=*/0x61746c76 /* "atlv" */);
  K = memo::fpCombine(K, memo::fingerprintProgram(Src));
  K = memo::fpCombine(K, memo::fingerprintProgram(Tgt));
  auto mixDomain = [&K](const ValueDomain &D) {
    const std::vector<int64_t> &Vals = D.values();
    memo::fpMix(K, Vals.size());
    for (int64_t V : Vals)
      memo::fpMix(K, static_cast<uint64_t>(V));
  };
  mixDomain(Opts.Seq.Domain);
  memo::fpMix(K, Opts.Seq.StepBudget);
  memo::fpMix(K, Opts.Seq.MaxBehaviors);
  mixDomain(Opts.Ps.Domain);
  memo::fpMix(K, Opts.Ps.PromiseBudget);
  memo::fpMix(K, Opts.Ps.SplitBudget);
  memo::fpMix(K, Opts.Ps.CertNodeBudget);
  memo::fpMix(K, Opts.Ps.MaxStates);
  memo::fpMix(K, Opts.Ps.ConfigSalt);
  return K;
}

void classify(AtlasEntry &E) {
  if (E.SeqAdvanced) {
    E.Verdict = AtlasVerdict::Sound;
    // ⊑w certified yet some context rejected. Either a checker bug or the
    // PS^na explorer's unmodeled-reservation gap (Atlas.h file comment);
    // the golden table pins the set so any drift fails CI.
    E.Mismatch = !E.Psna;
  } else {
    E.Verdict = E.Psna ? AtlasVerdict::SeqIncomplete : AtlasVerdict::Unsound;
    E.Mismatch = false;
  }
}

} // namespace

std::vector<AtlasTemplate> atlas::enumerateTemplates() {
  std::vector<AtlasTemplate> Out;
  addReorders(Out);
  addEliminations(Out);
  addIntroductions(Out);
  addWeakenings(Out);
  // The builders sweep mode grids freely; combinations that would access
  // one location with both a non-atomic and an atomic mode are ill-formed
  // under the language's no-mixing rule and drop out here.
  Out.erase(std::remove_if(Out.begin(), Out.end(),
                           [](const AtlasTemplate &T) {
                             return templateMixesModes(T.Src, T.Tgt);
                           }),
            Out.end());
  return Out;
}

AtlasEntry atlas::decideTemplate(const AtlasTemplate &T,
                                 const AtlasOptions &Opts) {
  AtlasEntry E;
  E.Id = T.Id;
  E.Cat = T.Cat;
  E.Src = T.Src;
  E.Tgt = T.Tgt;
  E.SrcText = renderAtoms(T.Src);
  E.TgtText = renderAtoms(T.Tgt);

  TemplateLayout L = templateLayout(T.Src, T.Tgt);
  std::unique_ptr<Program> SrcP = buildTemplateProgram(T.Src, L);
  std::unique_ptr<Program> TgtP = buildTemplateProgram(T.Tgt, L);

  memo::MemoContext *MC = Opts.Memo;
  bool UseCache = MC && MC->options().Cache;
  memo::Fp128 Key;
  if (UseCache) {
    Key = verdictKey(*SrcP, *TgtP, Opts);
    if (std::shared_ptr<const AtlasVerdictRec> Hit =
            MC->lookupAs<AtlasVerdictRec>(
                memo::MemoContext::Table::AtlasVerdicts, Key)) {
      MC->noteHit();
      E.SeqSimple = Hit->SeqSimple;
      E.SeqAdvanced = Hit->SeqAdvanced;
      E.Psna = Hit->Psna;
      E.Bounded = Hit->Bounded;
      classify(E);
      return E;
    }
    MC->noteMiss();
  }

  SeqConfig SeqCfg = Opts.Seq;
  PsConfig PsCfg = Opts.Ps;
  SeqCfg.Telem = PsCfg.Telem = Opts.Telem;
  SeqCfg.Guard = PsCfg.Guard = Opts.Guard;
  PsCfg.Memo = Opts.Memo;
  AdequacyRecord Rec =
      runAdequacy(T.Id, *SrcP, *TgtP, SeqCfg, PsCfg, /*HasLoops=*/false);
  E.SeqSimple = Rec.SeqSimple;
  E.SeqAdvanced = Rec.SeqAdvanced;
  E.Psna = Rec.PsnaAllContexts;
  E.Bounded = Rec.AnyBounded;
  classify(E);

  // Guard-truncated verdicts are timing-dependent; never cache them.
  if (UseCache && !(E.Bounded && Opts.Guard)) {
    auto Rec2 = std::make_shared<AtlasVerdictRec>();
    Rec2->SeqSimple = E.SeqSimple;
    Rec2->SeqAdvanced = E.SeqAdvanced;
    Rec2->Psna = E.Psna;
    Rec2->Bounded = E.Bounded;
    MC->insertAs<AtlasVerdictRec>(memo::MemoContext::Table::AtlasVerdicts,
                                  Key, std::move(Rec2));
  }
  return E;
}

AtlasResult atlas::buildAtlas(const AtlasOptions &Opts) {
  obs::SpanRecorder *Spans = Opts.Telem ? Opts.Telem->Spans : nullptr;
  obs::ScopedSpan BuildSpan(Spans, "atlas.build");

  std::vector<AtlasTemplate> Templates = enumerateTemplates();
  AtlasResult R;
  R.Entries.resize(Templates.size());

  // Templates fan out across the pool and land in template order. None is
  // drained on a guard trip: each one's checks poll the guard and come
  // back bounded, as in a one-worker run.
  unsigned N = exec::fanOutWidth(Opts.NumThreads, Templates.size());
  obs::WorkerTelemetry WTelem(Opts.Telem, N);
  std::vector<AtlasOptions> WOpts(N, Opts);
  for (unsigned W = 0; W != N; ++W)
    WOpts[W].Telem = WTelem[W];
  exec::parallelFor(N, Templates.size(), [&](size_t I, unsigned W) {
    R.Entries[I] = decideTemplate(Templates[I], WOpts[W]);
  });
  WTelem.merge();

  for (const AtlasEntry &E : R.Entries) {
    switch (E.Verdict) {
    case AtlasVerdict::Sound:
      ++R.Sound;
      break;
    case AtlasVerdict::SeqIncomplete:
      ++R.SeqIncomplete;
      break;
    case AtlasVerdict::Unsound:
      ++R.Unsound;
      break;
    }
    R.Mismatches += E.Mismatch ? 1 : 0;
    R.BoundedEntries += E.Bounded ? 1 : 0;
  }

  if (Opts.Telem) {
    obs::Stats &C = Opts.Telem->Counters;
    C.add("atlas.entries", R.Entries.size());
    C.add("atlas.sound", R.Sound);
    C.add("atlas.seq_incomplete", R.SeqIncomplete);
    C.add("atlas.unsound", R.Unsound);
    C.add("atlas.negative", R.negativeEntries());
    C.add("atlas.mismatch", R.Mismatches);
    C.add("atlas.bounded", R.BoundedEntries);
  }
  return R;
}

std::string atlas::renderAtlasMarkdown(const AtlasResult &R) {
  std::string Out;
  Out += "# Transformation atlas\n\n";
  Out += "Auto-generated verdict table over every "
         "reorder/eliminate/introduce/weaken\ntemplate on the access-mode "
         "grid. "
         "Regenerate with `atlas_test --update-golden`;\ndo not edit by "
         "hand. Columns: `⊑` simple refinement (Def 2.4), `⊑w` advanced\n"
         "refinement (Def 3.3), `PS^na` Def 5.3 outcome inclusion under "
         "every context of\nthe adequacy library. Verdicts: `sound` (⊑w "
         "certified), `seq-incomplete`\n(SEQ rejects, no context "
         "distinguishes — not certified, used by the weakening\npass's "
         "PS^na justification), `unsound` (a context witnesses the "
         "difference;\nthe pair runs as a validator negative test). "
         "A `**MISMATCH**` row is ⊑w-certified\nyet rejected by some "
         "context: the PS^na explorer models PS2.1 certification\nwithout "
         "reservations, so a source cannot promise a value fulfilled by "
         "its own\nadjacent RMW — reorders of a silent access past an RMW "
         "lose that source\nbehavior. The rows below pin the known set; "
         "any change fails CI.\n\n";
  Out += "Entries: " + std::to_string(R.Entries.size()) +
         " — sound " + std::to_string(R.Sound) + ", seq-incomplete " +
         std::to_string(R.SeqIncomplete) + ", unsound " +
         std::to_string(R.Unsound) + ", mismatches " +
         std::to_string(R.Mismatches) + ".\n";

  for (Category Cat : {Category::Reorder, Category::Eliminate,
                       Category::Introduce, Category::Weaken}) {
    Out += std::string("\n## ") + categoryName(Cat) + "\n\n";
    Out += "| # | source | target | ⊑ | ⊑w | PS^na | verdict |\n";
    Out += "|---|--------|--------|---|----|-------|---------|\n";
    unsigned Row = 0;
    for (const AtlasEntry &E : R.Entries) {
      if (E.Cat != Cat)
        continue;
      auto yn = [](bool B) { return B ? "yes" : "no"; };
      Out += "| " + std::to_string(++Row) + " | `" + E.SrcText + "` | `" +
             E.TgtText + "` | " + yn(E.SeqSimple) + " | " +
             yn(E.SeqAdvanced) + " | " + yn(E.Psna) + " | " +
             atlasVerdictName(E.Verdict) +
             (E.Mismatch ? " **MISMATCH**" : "") +
             (E.Bounded ? " (bounded)" : "") + " |\n";
    }
  }
  return Out;
}

//===- adequacy/FuzzCampaign.cpp - Crash-isolated fuzzing -----------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "adequacy/FuzzCampaign.h"

#include "adequacy/Harness.h"
#include "adequacy/RandomProgram.h"
#include "guard/Guard.h"
#include "guard/Isolate.h"
#include "guard/Shrink.h"
#include "guard/Signals.h"
#include "lang/Parser.h"
#include "litmus/RealWorld.h"
#include "memo/MemoContext.h"
#include "obs/Telemetry.h"
#include "obs/TraceExport.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

using namespace pseq;

namespace {

/// Child → parent verdict protocol (exit codes). Anything else is a
/// protocol violation and counts as a crash.
constexpr int ExitAgree = 0;
constexpr int ExitMismatch = 10;
constexpr int ExitBounded = 11;
constexpr int ExitBroken = 12; ///< generator produced an unparseable pair

/// The seed case behind a corpus-seeded pair, recovered from the
/// "realworld:<case>:<kind>" mutation tag (case names contain no ':').
/// nullptr for random pairs and unrecognized tags.
const RealWorldCase *seedCaseOf(const std::string &Mutation) {
  constexpr const char Prefix[] = "realworld:";
  if (Mutation.rfind(Prefix, 0) != 0)
    return nullptr;
  size_t NameBegin = sizeof(Prefix) - 1;
  size_t NameEnd = Mutation.find(':', NameBegin);
  if (NameEnd == std::string::npos)
    return nullptr;
  return realWorldCaseByNameMaybe(
      Mutation.substr(NameBegin, NameEnd - NameBegin));
}

/// Byte offsets of every occurrence of \p Needle in \p S.
std::vector<size_t> findAll(const std::string &S, const std::string &Needle) {
  std::vector<size_t> Hits;
  for (size_t P = S.find(Needle); P != std::string::npos;
       P = S.find(Needle, P + 1))
    Hits.push_back(P);
  return Hits;
}

/// True when the access at the `@mode` token starting at \p At is a store
/// (the token is followed by `:=`), which decides the strengthening
/// direction: the parser only accepts acq on reads and rel on writes.
bool isStoreAt(const std::string &S, size_t At, size_t TokLen) {
  size_t P = At + TokLen;
  while (P < S.size() && S[P] == ' ')
    ++P;
  return P + 1 < S.size() && S[P] == ':' && S[P + 1] == '=';
}

/// One token-level mutation of a protocol text, or "" when the chosen
/// kind has no applicable site. The kinds mirror the corpus's curated
/// mutants: mode weakening is exactly how rw-*-rlx-* cases inject their
/// bugs, and store tweaks/duplications perturb the published values the
/// protocols' MustExclude annotations watch.
std::string mutateProtocolText(const std::string &Text, unsigned Kind,
                               Rng &R, const char **KindName) {
  std::string Out = Text;
  switch (Kind) {
  case 0: { // weaken one acquire/release to relaxed
    *KindName = "weaken-mode";
    std::vector<size_t> Sites = findAll(Text, "@acq");
    for (size_t P : findAll(Text, "@rel"))
      Sites.push_back(P);
    if (Sites.empty())
      return "";
    Out.replace(Sites[R.below(Sites.size())], 4, "@rlx");
    return Out;
  }
  case 1: { // strengthen one relaxed access (rel on stores, acq on loads)
    *KindName = "strengthen-mode";
    std::vector<size_t> Sites = findAll(Text, "@rlx");
    if (Sites.empty())
      return "";
    size_t P = Sites[R.below(Sites.size())];
    Out.replace(P, 4, isStoreAt(Text, P, 4) ? "@rel" : "@acq");
    return Out;
  }
  case 2: { // bump one store's constant
    *KindName = "tweak-const";
    std::vector<size_t> Sites;
    for (size_t P : findAll(Text, ":= ")) {
      size_t D = P + 3;
      if (D < Text.size() && Text[D] >= '0' && Text[D] <= '9')
        Sites.push_back(D);
    }
    if (Sites.empty())
      return "";
    size_t D = Sites[R.below(Sites.size())];
    size_t End = D;
    while (End < Text.size() && Text[End] >= '0' && Text[End] <= '9')
      ++End;
    uint64_t V = std::strtoull(Text.substr(D, End - D).c_str(), nullptr, 10);
    Out.replace(D, End - D, std::to_string((V + 1) % 4));
    return Out;
  }
  default: { // duplicate one constant store statement
    *KindName = "dup-store";
    std::vector<size_t> Sites;
    for (size_t P : findAll(Text, ":= ")) {
      size_t D = P + 3;
      if (D < Text.size() && Text[D] >= '0' && Text[D] <= '9')
        Sites.push_back(P);
    }
    if (Sites.empty())
      return "";
    size_t P = Sites[R.below(Sites.size())];
    // Statement start: just past the previous ';', '{', or newline.
    size_t Begin = Text.find_last_of(";{\n", P);
    Begin = Begin == std::string::npos ? 0 : Begin + 1;
    size_t End = Text.find(';', P);
    if (End == std::string::npos)
      return "";
    std::string Stmt = Text.substr(Begin, End + 1 - Begin);
    Out.insert(End + 1, Stmt);
    return Out;
  }
  }
}

/// Generates one corpus-seeded pair: a RealWorld protocol text as the
/// source, a parseable token-level mutant of it as the target (same
/// layout, same thread count — the mutation kinds cannot change either,
/// but the parse re-check keeps the generator honest). Occasionally emits
/// the identity pair, the direction where SEQ validates and every PS^na
/// context must agree. Deterministic in \p R's state.
RandomPair realWorldSeedPair(Rng &R) {
  static const std::vector<const RealWorldCase *> Seeds = [] {
    std::vector<const RealWorldCase *> S;
    for (const RealWorldCase &RC : realWorldCorpus())
      if (!RC.IsMutant)
        S.push_back(&RC);
    return S;
  }();
  const RealWorldCase &RC = *Seeds[R.below(Seeds.size())];
  if (R.chance(1, 8))
    return {RC.Text, RC.Text, "realworld:" + RC.Name + ":identity"};
  for (unsigned Attempt = 0; Attempt != 8; ++Attempt) {
    const char *KindName = "";
    std::string Mutant =
        mutateProtocolText(RC.Text, unsigned(R.below(4)), R, &KindName);
    if (Mutant.empty() || Mutant == RC.Text)
      continue;
    ParseResult P = parseProgram(Mutant);
    if (!P.ok())
      continue;
    return {RC.Text, std::move(Mutant),
            "realworld:" + RC.Name + ":" + KindName};
  }
  return {RC.Text, RC.Text, "realworld:" + RC.Name + ":identity"};
}

/// Runs the adequacy harness on one pair and maps the record onto the
/// exit-code protocol. Single-threaded on purpose: fork-isolated children
/// must not touch the thread pool, and the parent wants fork safety too.
/// \p Telem is the parent's telemetry for pairs run in-process (null in
/// isolated children): it carries the static-vs-dynamic race counters
/// (analysis.agree / analysis.false_positive / analysis.soundness_violation)
/// that the explorer emits while cross-validating the lint verdict.
int checkPairInline(const RandomPair &Pair, const CampaignOptions &Opts,
                    AdequacyRecord *RecOut, obs::Telemetry *Telem) {
  ParseResult S = parseProgram(Pair.Src);
  ParseResult T = parseProgram(Pair.Tgt);
  if (!S.ok() || !T.ok())
    return ExitBroken;

  const RealWorldCase *Seed =
      Opts.SeedCorpus.empty() ? nullptr : seedCaseOf(Pair.Mutation);

  // Corpus-seeded pairs always run governed: the protocols' spin loops
  // make the advanced checker's per-behavior oracle game explode at
  // default budgets, and an in-child guard deadline yields an honest
  // bounded verdict where the isolation wall timeout would count the
  // pair as a malfunction.
  guard::ResourceGuard Guard;
  uint64_t DeadlineMs = Opts.DeadlineMs;
  if (!DeadlineMs && Seed)
    DeadlineMs = 3000;
  bool Governed = DeadlineMs || Opts.MemMb;
  if (DeadlineMs)
    Guard.setDeadlineInMs(DeadlineMs);
  if (Opts.MemMb)
    Guard.setMemLimitBytes(Opts.MemMb << 20);

  SeqConfig SeqCfg;
  SeqCfg.NumThreads = 1;
  SeqCfg.Guard = Governed ? &Guard : nullptr;
  SeqCfg.Telem = Telem;
  PsConfig PsCfg;
  PsCfg.NumThreads = 1;
  PsCfg.Guard = SeqCfg.Guard;
  PsCfg.Telem = Telem;
  if (Seed) {
    // The seed case knows its own value domain and PS^na budgets. The
    // SEQ lane instead gets reduced enumeration bounds (16 steps, 500
    // behaviors): at the default budgets the ⊑w oracle game on one
    // spin-loop protocol thread runs for minutes, and the guard
    // checkpoints only between initial states, so a single initial state
    // would outlive any deadline. The same bounds keep litmus_explorer's
    // RealWorld ⊑w lane tractable.
    PsConfig SeedCfg = realWorldPsConfig(*Seed);
    SeedCfg.NumThreads = PsCfg.NumThreads;
    SeedCfg.Guard = PsCfg.Guard;
    SeedCfg.Telem = PsCfg.Telem;
    PsCfg = SeedCfg;
    SeqCfg.Domain = Seed->Domain;
    SeqCfg.StepBudget = 16;
    SeqCfg.MaxBehaviors = 500;
  }

  // A fresh per-pair context: the PS^na behavior-set cache is shared
  // across every context-library clone of this pair. Fork-isolated
  // children construct their own (cross-pair sharing would die with the
  // child anyway).
  memo::MemoContext Memo;
  if (Opts.UseMemo)
    PsCfg.Memo = &Memo;

  AdequacyRecord Rec = runAdequacy(Pair.Mutation, *S.Prog, *T.Prog, SeqCfg,
                                   PsCfg, /*HasLoops=*/Seed != nullptr);
  if (RecOut)
    *RecOut = Rec;
  // A mismatch is only a finding when the SEQ premise actually held: a
  // truncated SEQ positive (routine on the spin-loop seed corpus) plus a
  // PS^na refutation is a bounded non-verdict, not a Thm 6.2 violation.
  if (!Rec.adequacyHolds() && !Rec.SeqBounded)
    return ExitMismatch;
  return Rec.AnyBounded ? ExitBounded : ExitAgree;
}

/// Injected faults (campaign self-tests). Each is bounded so that even
/// without the expected limit the child terminates on its own.
[[noreturn]] void injectFault(FaultKind F, uint64_t WallMs) {
  switch (F) {
  case FaultKind::Crash:
    std::abort();
  case FaultKind::Oom: {
    // Reserve address space until RLIMIT_AS refuses; bad_alloc would be
    // caught higher up, so exit with the OOM code directly. Capped at 8 GiB
    // in case no limit is in force.
    std::vector<std::unique_ptr<char[]>> Chunks;
    constexpr size_t ChunkBytes = 16u << 20;
    try {
      for (unsigned I = 0; I != 512; ++I) {
        Chunks.push_back(std::make_unique<char[]>(ChunkBytes));
        std::memset(Chunks.back().get(), 1, 4096); // touch one page
      }
    } catch (const std::bad_alloc &) {
    }
    std::_Exit(guard::IsolateOomExit);
  }
  case FaultKind::Hang: {
    // Spin well past the wall timeout; the parent's SIGKILL ends this. The
    // bound keeps it finite should the timeout machinery be absent.
    std::chrono::steady_clock::time_point Until =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(WallMs ? WallMs * 10 : 60000);
    volatile uint64_t Sink = 0;
    while (std::chrono::steady_clock::now() < Until)
      Sink = Sink + 1;
    std::_Exit(ExitAgree);
  }
  case FaultKind::None:
    break;
  }
  std::_Exit(ExitBroken);
}

/// Delta-debugs a mismatching pair; the predicate requires the candidate
/// to parse, keep the single-thread shape, and still disagree.
void shrinkFinding(const CampaignOptions &Opts, RandomPair &Pair) {
  guard::ResourceGuard ShrinkGuard;
  ShrinkGuard.setDeadlineInMs(Opts.DeadlineMs ? Opts.DeadlineMs * 4 : 5000);
  guard::ShrinkOptions SOpts;
  SOpts.MaxProbes = 128;
  SOpts.Guard = &ShrinkGuard;
  guard::ShrinkResult SR = guard::shrinkPair(
      Pair.Src, Pair.Tgt,
      [&](const std::string &S, const std::string &T) {
        ParseResult PS = parseProgram(S);
        ParseResult PT = parseProgram(T);
        if (!PS.ok() || !PT.ok())
          return false;
        if (!sameLayout(*PS.Prog, *PT.Prog) || PS.Prog->numThreads() != 1 ||
            PT.Prog->numThreads() != 1)
          return false;
        RandomPair Cand{S, T, Pair.Mutation};
        return checkPairInline(Cand, Opts, nullptr, nullptr) == ExitMismatch;
      },
      SOpts);
  Pair.Src = std::move(SR.Src);
  Pair.Tgt = std::move(SR.Tgt);
}

} // namespace

CampaignStats pseq::runFuzzCampaign(const CampaignOptions &Opts) {
  CampaignStats Stats;
  Rng R(Opts.Seed);
  obs::Telemetry *Telem = Opts.Telem;
  std::chrono::steady_clock::time_point Start =
      std::chrono::steady_clock::now();
  auto elapsedMs = [&] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - Start)
        .count();
  };
  const bool UseIsolation = Opts.Isolate && guard::isolationSupported();

  for (unsigned I = 0; I != Opts.Count; ++I) {
    if (guard::shutdownRequested()) {
      Stats.Interrupted = true;
      break;
    }
    if (Opts.TotalMs && elapsedMs() >= static_cast<double>(Opts.TotalMs)) {
      Stats.TimedOut = true;
      break;
    }
    RandomPair Pair = Opts.SeedCorpus == "realworld" ? realWorldSeedPair(R)
                                                     : randomRefinementPair(R);
    ++Stats.Pairs;
    FaultKind Fault = (Opts.Fault != FaultKind::None && I == Opts.InjectAt)
                          ? Opts.Fault
                          : FaultKind::None;

    // Maps a child exit code (or an inline verdict) onto a stats bucket.
    auto classifyExit = [&](int Code) -> const char * {
      switch (Code) {
      case ExitAgree:
        ++Stats.Agree;
        return "agree";
      case ExitMismatch:
        ++Stats.Mismatch;
        return "mismatch";
      case ExitBounded:
        ++Stats.Bounded;
        return "bounded";
      default:
        ++Stats.Crash; // protocol violation (includes ExitBroken)
        return "crash";
      }
    };

    const char *Outcome = "agree";
    obs::ScopedSpan PairSpan(Telem ? Telem->Spans : nullptr, "fuzz.pair");
    std::chrono::steady_clock::time_point PairStart =
        std::chrono::steady_clock::now();
    if (UseIsolation) {
      guard::IsolateLimits Limits;
      if (Opts.Fault == FaultKind::None || Fault != FaultKind::None)
        Limits.WallMs = Opts.WallMs;
      // Soft guard budgets run inside the child; the rlimits back them up
      // with headroom so the guard normally wins and returns an honest
      // bounded verdict instead of a killed child.
      if (Limits.WallMs)
        Limits.CpuSeconds = Limits.WallMs / 1000 + 2;
      if (Opts.MemMb)
        Limits.MemBytes = (Opts.MemMb << 20) * 4 + (256u << 20);
      else if (Fault == FaultKind::Oom)
        Limits.MemBytes = 512u << 20; // give the injected OOM a wall to hit
      guard::IsolateResult IR = guard::runIsolated(
          [&]() -> int {
            if (Fault != FaultKind::None)
              injectFault(Fault, Opts.WallMs); // never returns
            return checkPairInline(Pair, Opts, nullptr, nullptr);
          },
          Limits);
      switch (IR.Status) {
      case guard::IsolateStatus::Ok:
      case guard::IsolateStatus::Fail:
        ++Stats.Isolated;
        Outcome = classifyExit(IR.ExitCode);
        break;
      case guard::IsolateStatus::Deadline:
        ++Stats.Isolated;
        ++Stats.Deadline;
        Outcome = "deadline";
        break;
      case guard::IsolateStatus::Oom:
        ++Stats.Isolated;
        ++Stats.Oom;
        Outcome = "oom";
        break;
      case guard::IsolateStatus::Crash:
        ++Stats.Isolated;
        ++Stats.Crash;
        Outcome = "crash";
        break;
      case guard::IsolateStatus::Unsupported:
        // fork() failed on this pair; run it inline instead.
        Outcome = classifyExit(checkPairInline(Pair, Opts, nullptr, Telem));
        break;
      }
    } else {
      Outcome = classifyExit(checkPairInline(Pair, Opts, nullptr, Telem));
    }

    if (std::strcmp(Outcome, "mismatch") == 0) {
      // Corpus-seeded findings stay unshrunk: the delta-debugger's
      // predicate pins the random generator's single-thread shape, which
      // every multi-threaded protocol pair would fail on the first probe.
      if (Opts.ShrinkFailures && Opts.SeedCorpus.empty())
        shrinkFinding(Opts, Pair);
      Stats.Findings.push_back("pair " + std::to_string(I) + " [" +
                               Pair.Mutation + "]\n--- source\n" + Pair.Src +
                               "--- target\n" + Pair.Tgt);
    }

    double PairMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - PairStart)
                        .count();
    if (Telem) {
      Telem->Counters.add("fuzz.pairs");
      Telem->Counters.add(std::string("fuzz.") + Outcome);
      Telem->Counters.recordHist("fuzz.pair.us",
                                 static_cast<uint64_t>(PairMs * 1000.0));
      if (Telem->Spans)
        Telem->Spans->instant("fuzz.pair", {{"index", uint64_t(I)},
                                            {"mutation", Pair.Mutation},
                                            {"outcome", Outcome},
                                            {"isolated", UseIsolation},
                                            {"ms", PairMs}});
      // A crashed/limited child is exactly the run a post-mortem needs the
      // trace for: write it out, counters included, before the campaign
      // moves on (it survives even if the parent dies on a later pair).
      if (!Opts.TraceOutPath.empty() &&
          (std::strcmp(Outcome, "crash") == 0 ||
           std::strcmp(Outcome, "oom") == 0 ||
           std::strcmp(Outcome, "deadline") == 0))
        obs::writeChromeTrace(*Telem, Opts.TraceOutPath, "fuzz_campaign",
                              Outcome);
    }
    if (Opts.Verbose)
      std::fprintf(stderr, "[fuzz] pair %u: %s (%.1f ms)\n", I, Outcome,
                   PairMs);
  }
  return Stats;
}

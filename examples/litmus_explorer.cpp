//===- examples/litmus_explorer.cpp - Exhaustive PS^na exploration --------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Explores litmus tests under PS^na and prints their outcome sets —
// either a built-in corpus (no arguments) or a program from a file:
//
//   litmus_explorer [flags] [file [promise-budget [split-budget]]]
//   litmus_explorer [flags] --witness <corpus-case> <behavior>
//   litmus_explorer --list
//
//   --corpus NAME    corpus mode only: which corpus to explore — "classic"
//                    (the paper examples + classic litmus shapes, default)
//                    or "realworld" (the lock-free protocol corpus,
//                    src/litmus/RealWorld.h). The realworld run checks
//                    every case's annotations and tallies the realworld.*
//                    counters plus a litmus.realworld.states_per_sec gauge.
//                    It then runs the Fig. 6 self-simulation of every
//                    protocol thread, differentially checked against a
//                    budget-bounded ⊑w lane, tallied as litmus.sim.*
//                    counters.
//   --list           print every corpus with case counts and per-case
//                    paper/source refs, then exit
//   --threads N      parallelize exploration across N workers (0 = all
//                    hardware threads); outcome sets are identical for any N
//   --deadline-ms N  soft wall-clock budget for the whole run
//   --mem-mb N       approximate memory budget for retained states
//   --no-memo        disable memoization (sleep-set pruning and the
//                    cross-run behavior cache); outcome sets are identical
//                    either way
//   --no-lint        disable the static race analyzer (and with it the
//                    NAMsg-marker suppression on proved-race-free
//                    programs and the promise-free rule); outcome sets are
//                    identical either way, only the state counts change
//   --sweep N        corpus mode only: explore the whole corpus N times
//                    sharing one memo context and one telemetry registry
//                    (litmus.sweeps counts them)
//   --trace-out PATH Chrome trace-event / Perfetto JSON of the run: the
//                    explorer's causal spans and instant events, written
//                    at exit. It ends in a run.final instant holding every
//                    counter and gauge of the run — states explored, memo
//                    hits/misses/pruned, the promise-free skips
//                    (psna.promise_free_skips), the litmus.lint.*,
//                    realworld.* and litmus.sim.* tallies — which
//                    tools/check_bench_baseline.py gates against
//                    BENCH_BASELINE.json.
//
// Numeric arguments are parsed strictly: garbage is a usage error, not a
// silent 0. Once a --deadline-ms / --mem-mb budget trips, remaining
// outcome sets print with a [TRUNCATED: deadline] / [TRUNCATED:
// mem-budget] marker instead of the run hanging or dying.
//
// The witness mode prints an execution (machine states step by step)
// exhibiting the given outcome, e.g.
//
//   litmus_explorer --witness ex5.1-promise-racy-read 'ret(undef,1)'
//
//===----------------------------------------------------------------------===//

#include "exec/ThreadPool.h"
#include "guard/Guard.h"
#include "litmus/Corpus.h"
#include "litmus/RealWorld.h"
#include "memo/MemoContext.h"
#include "obs/Span.h"
#include "obs/Telemetry.h"
#include "obs/TraceExport.h"
#include "psna/Explorer.h"
#include "seq/AdvancedRefinement.h"
#include "seq/Simulation.h"
#include "support/CliArgs.h"

#include "lang/Parser.h"
#include "lang/Printer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

using namespace pseq;

namespace {

/// Explores one program and prints its outcome set. With \p LintTally set
/// (the first classic sweep) the race verdict is tallied there: the cases
/// the lint proves safe, and the states explored on the cases whose proof
/// suppressed NAMsg markers.
void explore(const std::string &Title, const std::string &Text,
             const PsConfig &Cfg, bool Quiet = false,
             obs::Stats *LintTally = nullptr) {
  std::unique_ptr<Program> P = parseOrDie(Text);
  PsBehaviorSet B = explorePsna(*P, Cfg);
  if (LintTally && B.Lint) {
    LintTally->add("litmus.lint.proved_cases",
                   *B.Lint != analysis::RaceVerdict::PotentiallyRacy);
    LintTally->add("litmus.lint.race_free_states",
                   B.MarkersSkipped ? B.StatesExplored : 0);
  }
  if (Quiet)
    return;
  std::string Trunc;
  if (B.truncated())
    Trunc = std::string("  [TRUNCATED: ") + truncationCauseName(B.Cause) + "]";
  std::printf("%-28s (promises=%u splits=%u)  %u states%s\n", Title.c_str(),
              Cfg.PromiseBudget, Cfg.SplitBudget, B.StatesExplored,
              Trunc.c_str());
  for (const std::string &S : B.strs())
    std::printf("    %s\n", S.c_str());
}

int usage(const char *Prog, const std::string &Err) {
  std::fprintf(stderr, "error: %s\n", Err.c_str());
  std::fprintf(stderr,
               "usage: %s [--threads N] [--deadline-ms N] [--mem-mb N] "
               "[--no-memo] [--no-lint] [--sweep N] [--corpus classic|"
               "realworld] [--trace-out PATH] "
               "[file [promise-budget [split-budget]]]\n"
               "       %s [--threads N] --witness <corpus-case> <behavior>\n"
               "       %s --list\n",
               Prog, Prog, Prog);
  return 2;
}

/// --list: every corpus with its case count and per-case refs.
int listCorpora() {
  std::printf("refinement corpus (%zu cases) — paper refinement pairs:\n",
              refinementCorpus().size());
  for (const RefinementCase &RC : refinementCorpus())
    std::printf("  %-28s [%s]\n", RC.Name.c_str(), RC.PaperRef.c_str());
  std::printf("\nextension corpus (%zu cases) — fences/RMW/choose "
              "transpositions:\n",
              extensionCorpus().size());
  for (const RefinementCase &RC : extensionCorpus())
    std::printf("  %-28s [%s]\n", RC.Name.c_str(), RC.PaperRef.c_str());
  std::printf("\nclassic corpus (%zu cases) — litmus programs "
              "(--corpus classic):\n",
              litmusCorpus().size());
  for (const LitmusCase &LC : litmusCorpus())
    std::printf("  %-28s [%s]\n", LC.Name.c_str(), LC.PaperRef.c_str());
  std::printf("\nrealworld corpus (%zu cases) — lock-free protocols "
              "(--corpus realworld):\n",
              realWorldCorpus().size());
  for (const RealWorldCase &RC : realWorldCorpus())
    std::printf("  %-28s %s[%s]\n", RC.Name.c_str(),
                RC.IsMutant ? "(mutant) " : "", RC.SourceRef.c_str());
  return 0;
}

/// Witness-mode lookup across the litmus + realworld corpora; prints the
/// available names instead of aborting when the name is unknown.
bool witnessConfig(const std::string &Name, PsConfig &Cfg,
                   std::string &Text) {
  if (const LitmusCase *LC = litmusCaseByNameMaybe(Name)) {
    Cfg.Domain = LC->Domain;
    Cfg.PromiseBudget = LC->PromiseBudget;
    Cfg.SplitBudget = LC->SplitBudget;
    Text = LC->Text;
    return true;
  }
  if (const RealWorldCase *RC = realWorldCaseByNameMaybe(Name)) {
    Cfg = realWorldPsConfig(*RC);
    Text = RC->Text;
    return true;
  }
  std::fprintf(stderr, "unknown corpus case '%s'; available cases:\n",
               Name.c_str());
  for (const LitmusCase &LC : litmusCorpus())
    std::fprintf(stderr, "  %s\n", LC.Name.c_str());
  for (const RealWorldCase &RC : realWorldCorpus())
    std::fprintf(stderr, "  %s\n", RC.Name.c_str());
  return false;
}

int usageError(const char *Prog, const std::string &What,
               const char *Value) {
  return usage(Prog, "invalid value '" + std::string(Value ? Value : "") +
                         "' for " + What);
}

} // namespace

int main(int Argc, char **Argv) {
  const char *Prog = Argc ? Argv[0] : "litmus_explorer";
  unsigned NumThreads = exec::defaultNumThreads();
  uint64_t DeadlineMs = 0, MemMb = 0;
  uint64_t Sweeps = 1;
  bool NoMemo = false;
  bool NoLint = false;
  std::string Corpus = "classic";
  std::string TraceOutPath;
  {
    std::vector<char *> Rest;
    for (int I = 0; I != Argc; ++I) {
      std::string A = Argv[I];
      const char *Value = nullptr;
      std::string Err;
      if (cli::flagValue(Argc, Argv, I, "--threads", Value)) {
        // 0 = all hardware threads; the pool's hard cap bounds the rest.
        if (!cli::parseUnsignedInRange("--threads", Value, 0u,
                                       exec::maxThreads(), NumThreads, Err))
          return usage(Prog, Err);
        continue;
      }
      if (cli::flagValue(Argc, Argv, I, "--deadline-ms", Value)) {
        if (!cli::parseUnsignedInRange(
                "--deadline-ms", Value, uint64_t(1),
                std::numeric_limits<uint64_t>::max(), DeadlineMs, Err))
          return usage(Prog, Err);
        continue;
      }
      if (cli::flagValue(Argc, Argv, I, "--mem-mb", Value)) {
        if (!cli::parseUnsignedInRange("--mem-mb", Value, uint64_t(1),
                                       uint64_t(1) << 24, MemMb, Err))
          return usage(Prog, Err);
        continue;
      }
      if (cli::flagValue(Argc, Argv, I, "--sweep", Value)) {
        if (!cli::parseUnsignedInRange("--sweep", Value, uint64_t(1),
                                       uint64_t(1000000), Sweeps, Err))
          return usage(Prog, Err);
        continue;
      }
      if (cli::flagValue(Argc, Argv, I, "--trace-out", Value)) {
        if (!Value || !*Value)
          return usageError(Prog, "--trace-out", Value);
        TraceOutPath = Value;
        continue;
      }
      if (cli::flagValue(Argc, Argv, I, "--corpus", Value)) {
        Corpus = Value ? Value : "";
        if (Corpus != "classic" && Corpus != "realworld")
          return usageError(Prog, "--corpus (classic|realworld)", Value);
        continue;
      }
      if (A == "--list")
        return listCorpora();
      if (A == "--no-memo") {
        NoMemo = true;
        continue;
      }
      if (A == "--no-lint") {
        NoLint = true;
        continue;
      }
      Rest.push_back(Argv[I]);
    }
    Argc = static_cast<int>(Rest.size());
    for (int I = 0; I != Argc; ++I)
      Argv[I] = Rest[I];
  }

  guard::ResourceGuard Guard;
  guard::ResourceGuard *GuardPtr = nullptr;
  if (DeadlineMs || MemMb) {
    if (DeadlineMs)
      Guard.setDeadlineInMs(DeadlineMs);
    if (MemMb)
      Guard.setMemLimitBytes(MemMb << 20);
    GuardPtr = &Guard;
  }

  memo::MemoContext Memo;
  memo::MemoContext *MemoPtr = NoMemo ? nullptr : &Memo;

  // Flight recorder: one Telemetry and span recorder shared by every
  // exploration in the run.
  obs::Telemetry Telem;
  obs::SpanRecorder Spans;
  const bool WantTelem = !TraceOutPath.empty();
  if (WantTelem)
    Telem.Spans = &Spans;
  // Writes the Perfetto export, whose run.final names the truncation cause;
  // every exit path below funnels through here.
  auto finish = [&](int Code) {
    if (WantTelem &&
        !obs::writeChromeTrace(Telem, TraceOutPath, "litmus_explorer",
                               GuardPtr && GuardPtr->stopped()
                                   ? truncationCauseName(GuardPtr->cause())
                                   : "complete")) {
      std::fprintf(stderr, "error: cannot write %s\n", TraceOutPath.c_str());
      return 1;
    }
    return Code;
  };

  if (Argc == 4 && std::string(Argv[1]) == "--witness") {
    PsConfig Cfg;
    std::string Text;
    if (!witnessConfig(Argv[2], Cfg, Text))
      return finish(2);
    std::unique_ptr<Program> P = parseOrDie(Text);
    Cfg.NumThreads = NumThreads;
    Cfg.Guard = GuardPtr;
    Cfg.Lint = !NoLint;
    Cfg.Telem = WantTelem ? &Telem : nullptr;
    std::vector<PsMachineState> Path = findPsnaWitness(*P, Cfg, Argv[3]);
    if (Path.empty()) {
      std::printf("behavior %s not reachable for %s\n", Argv[3], Argv[2]);
      return finish(1);
    }
    std::printf("witness for %s exhibiting %s (%zu machine steps):\n",
                Argv[2], Argv[3], Path.size() - 1);
    for (size_t I = 0; I != Path.size(); ++I)
      std::printf("%3zu: %s\n", I, Path[I].str().c_str());
    return finish(0);
  }
  if (Argc > 1) {
    std::ifstream In(Argv[1]);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n", Argv[1]);
      return 1;
    }
    std::stringstream Buf;
    Buf << In.rdbuf();
    PsConfig Cfg;
    Cfg.NumThreads = NumThreads;
    Cfg.Guard = GuardPtr;
    Cfg.Memo = MemoPtr;
    Cfg.Lint = !NoLint;
    Cfg.Telem = WantTelem ? &Telem : nullptr;
    if (Argc > 2 && !cli::parseUnsigned(Argv[2], Cfg.PromiseBudget))
      return usageError(Prog, "promise-budget", Argv[2]);
    if (Argc > 3 && !cli::parseUnsigned(Argv[3], Cfg.SplitBudget))
      return usageError(Prog, "split-budget", Argv[3]);
    explore(Argv[1], Buf.str(), Cfg);
    return finish(0);
  }

  // RealWorld corpus mode: every exploration runs under the case's own
  // budgets (a global --deadline-ms/--mem-mb guard wins when given) and is
  // checked against its annotations on the spot; runRealWorldCase tallies
  // the realworld.* counters. They are deterministic; the states/sec gauge
  // is wall-clock, and the gate holds it only to an absurdly low
  // hang-detector floor.
  obs::Stats &C = Telem.Counters;
  // A zero delta puts the key in run.final on a sweep that skips nothing.
  C.add("psna.promise_free_skips", 0);
  if (Corpus == "realworld") {
    const auto T0 = std::chrono::steady_clock::now();
    std::printf("PS^na realworld outcomes (corpus of %zu cases)\n\n",
                realWorldCorpus().size());
    for (uint64_t Sweep = 0; Sweep != Sweeps; ++Sweep) {
      for (const RealWorldCase &RC : realWorldCorpus()) {
        guard::ResourceGuard CaseGuard;
        RealWorldRunOptions Opts;
        Opts.NumThreads = NumThreads;
        Opts.Lint = !NoLint;
        Opts.Telem = &Telem;
        Opts.Memo = MemoPtr;
        if (GuardPtr) {
          Opts.Guard = GuardPtr;
        } else {
          applyRealWorldGuardBudgets(CaseGuard, RC);
          Opts.Guard = &CaseGuard;
        }
        RealWorldRunResult R = runRealWorldCase(RC, Opts);
        if (Sweep != 0)
          continue; // outcome sets are identical across sweeps
        std::string Trunc;
        if (R.Behaviors.truncated())
          Trunc = std::string("  [TRUNCATED: ") +
                  truncationCauseName(R.Behaviors.Cause) + "]";
        std::printf("%-28s %s(promises=%u splits=%u lint=%s)  %u states%s\n",
                    RC.Name.c_str(), RC.IsMutant ? "(mutant) " : "",
                    RC.Budgets.PromiseBudget, RC.Budgets.SplitBudget,
                    R.Behaviors.Lint
                        ? analysis::raceVerdictName(*R.Behaviors.Lint)
                        : "off",
                    R.Behaviors.StatesExplored, Trunc.c_str());
        for (const std::string &S : R.Behaviors.strs())
          std::printf("    %s\n", S.c_str());
        for (const std::string &S : R.MissingIncludes)
          std::printf("    ANNOTATION FAILURE: must-include %s missing\n",
                      S.c_str());
        for (const std::string &S : R.ForbiddenSeen)
          std::printf("    ANNOTATION FAILURE: must-exclude %s exhibited\n",
                      S.c_str());
        for (const std::string &S : R.MissingBad)
          std::printf("    ANNOTATION FAILURE: mutant bad behavior %s "
                      "not exhibited\n",
                      S.c_str());
        if (!R.LintMatches)
          std::printf("    ANNOTATION FAILURE: lint verdict != %s\n",
                      analysis::raceVerdictName(RC.ExpectedLint));
        std::printf("\n");
      }
    }
    C.setGauge("litmus.realworld.states_per_sec",
               static_cast<double>(C.counter("realworld.states")) * 1000.0 /
                   std::max(obs::msSince(T0), 1.0));

    // The Fig. 6 self-simulation of every protocol thread, differentially
    // checked against a budget-bounded ⊑w lane (unbounded, the oracle game
    // runs for hours on these spin loops). The lane stops after a fixed
    // number of guard checkpoints, so the litmus.sim.* counts are
    // deterministic on any host; the six threads where ⊑w is exhaustive
    // need at most 2,826, and a thread that can never be compared stops
    // at the budget. A disagreement counts only where ⊑w is exhaustive: a
    // budget can shrink `compared`, never fake a disagreement. Any
    // disagreement is a soundness bug and fails the run.
    std::printf("Fig. 6 self-simulation sweep (protocol threads)\n");
    // Zero deltas too: every key reaches run.final on a clean sweep.
    for (const char *Key : {"litmus.sim.checked", "litmus.sim.decided",
                            "litmus.sim.compared", "litmus.sim.disagreements"})
      C.add(Key, 0);
    for (const RealWorldCase &RC : realWorldCorpus()) {
      if (RC.IsMutant)
        continue;
      std::unique_ptr<Program> P = parseOrDie(RC.Text);
      for (unsigned Tid = 0; Tid != P->numThreads(); ++Tid) {
        SeqConfig SCfg;
        SCfg.Domain = RC.Domain;
        SCfg.NumThreads = 1;
        SCfg.Telem = WantTelem ? &Telem : nullptr;
        SimulationResult S = checkSimulation(*P, Tid, *P, Tid, SCfg);
        SeqConfig ECfg = SCfg;
        ECfg.StepBudget = 16;
        ECfg.MaxBehaviors = 500;
        guard::CancellationToken EBudget;
        EBudget.tripAfterPolls(10000);
        guard::ResourceGuard EGuard;
        EGuard.setToken(&EBudget);
        ECfg.Guard = &EGuard;
        RefinementResult E = checkAdvancedRefinement(*P, Tid, *P, Tid, ECfg);
        C.add("litmus.sim.checked");
        C.add("litmus.sim.decided", S.Complete);
        C.add("litmus.sim.compared", S.Complete && !E.Bounded);
        C.add("litmus.sim.disagreements",
              S.Complete && !E.Bounded && S.Holds != E.Holds);
        std::printf("%-28s tid %u: %-8s nodes=%u  (⊑w: %s%s)\n",
                    RC.Name.c_str(), Tid,
                    !S.Complete ? "bounded" : S.Holds ? "holds" : "fails",
                    S.ProductNodes, E.Holds ? "holds" : "fails",
                    E.Bounded ? ", truncated" : "");
      }
    }
    const bool Failed = C.counter("realworld.annotation_failures") ||
                        C.counter("realworld.truncated") ||
                        C.counter("litmus.sim.disagreements");
    return finish(Failed ? 1 : 0);
  }

  // Classic corpus mode. With --sweep N the corpus is explored N times
  // sharing one memo context and one telemetry registry; repeat sweeps hit
  // the cross-run behavior cache. The counters the perf gate reads (states
  // expanded, memo hits/misses/pruned, litmus.lint.*) are deterministic.
  C.add("litmus.sweeps", Sweeps);
  std::printf("PS^na litmus outcomes (corpus of %zu tests)\n\n",
              litmusCorpus().size());
  for (uint64_t Sweep = 0; Sweep != Sweeps; ++Sweep) {
    for (const LitmusCase &LC : litmusCorpus()) {
      PsConfig Cfg;
      Cfg.Domain = LC.Domain;
      Cfg.PromiseBudget = LC.PromiseBudget;
      Cfg.SplitBudget = LC.SplitBudget;
      Cfg.NumThreads = NumThreads;
      Cfg.Guard = GuardPtr;
      Cfg.Memo = MemoPtr;
      Cfg.Telem = &Telem;
      Cfg.Lint = !NoLint;
      bool Quiet = Sweep != 0; // outcome sets are identical across sweeps
      explore(LC.Name + " [" + LC.PaperRef + "]", LC.Text, Cfg, Quiet,
              Sweep == 0 ? &C : nullptr);
      if (!Quiet)
        std::printf("\n");
    }
  }
  return finish(0);
}

//===- tests/telemetry_dict_test.cpp - DESIGN.md dictionary coverage ------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// The telemetry dictionary in DESIGN.md is the contract for every dotted
// key the instrumentation can emit. This test drives the engines with a
// live telemetry registry and span recorder, collects every key that
// actually fired (counters, gauges, histograms, span names, instant-event
// names), and fails if any is missing from the dictionary table — so a new
// instrumentation site cannot land undocumented. An instant-event name
// needs a row of kind `event`. Digit runs are normalized to `N`
// (psna.explore.thread3.steps matches psna.explore.threadN.steps).
//
//===----------------------------------------------------------------------===//

#include "atlas/Atlas.h"
#include "lang/Parser.h"
#include "litmus/Corpus.h"
#include "litmus/RealWorld.h"
#include "memo/MemoContext.h"
#include "obs/Telemetry.h"
#include "opt/Pipeline.h"
#include "psna/Explorer.h"
#include "seq/BehaviorEnum.h"
#include "serve/Server.h"

#include "gtest/gtest.h"

#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

using namespace pseq;

namespace {

#ifndef PSEQ_DESIGN_MD
#error "PSEQ_DESIGN_MD must point at DESIGN.md"
#endif

/// Replaces every maximal digit run with 'N': thread3 -> threadN.
std::string normalizeDigits(const std::string &Key) {
  std::string Out;
  bool InRun = false;
  for (char C : Key) {
    if (std::isdigit(static_cast<unsigned char>(C))) {
      if (!InRun)
        Out += 'N';
      InRun = true;
    } else {
      Out += C;
      InRun = false;
    }
  }
  return Out;
}

/// First-column backticked keys of the dictionary table rows
/// (`| `key` | kind | ...`) in DESIGN.md's "Telemetry dictionary" section,
/// each with the kinds its rows give it.
std::map<std::string, std::set<std::string>> dictionaryKeys() {
  std::ifstream In(PSEQ_DESIGN_MD);
  EXPECT_TRUE(In.good()) << "cannot open " << PSEQ_DESIGN_MD;
  std::map<std::string, std::set<std::string>> Keys;
  std::string Line;
  bool InSection = false;
  while (std::getline(In, Line)) {
    if (Line.rfind("### Telemetry dictionary", 0) == 0) {
      InSection = true;
      continue;
    }
    if (InSection && (Line.rfind("## ", 0) == 0 || Line.rfind("### ", 0) == 0))
      break;
    if (!InSection || Line.rfind("| `", 0) != 0)
      continue;
    size_t End = Line.find('`', 3);
    if (End == std::string::npos)
      continue;
    std::set<std::string> &Kinds = Keys[Line.substr(3, End - 3)];
    size_t KindBegin = Line.find("| ", End);
    size_t KindEnd = KindBegin == std::string::npos
                         ? std::string::npos
                         : Line.find(" |", KindBegin + 2);
    if (KindEnd != std::string::npos)
      Kinds.insert(Line.substr(KindBegin + 2, KindEnd - KindBegin - 2));
  }
  return Keys;
}

/// The keys an engine run fired: every counter, gauge, histogram and span
/// name, and separately every instant-event name.
struct FiredKeys {
  std::set<std::string> Keys;
  std::set<std::string> Events;
};

/// Drives every instrumented engine once and returns the normalized keys
/// that fired.
FiredKeys runtimeKeys() {
  obs::Telemetry Telem;
  obs::SpanRecorder Spans;
  Telem.Spans = &Spans;
  memo::MemoContext Memo;

  // Optimizer pipeline (opt.*, seq.check.*, seq.enum/machine counters).
  for (const RefinementCase &RC : refinementCorpus()) {
    std::unique_ptr<Program> P = parseOrDie(RC.Src);
    PipelineOptions Opts;
    Opts.Cfg.Domain = RC.Domain;
    Opts.Cfg.StepBudget = RC.StepBudget;
    Opts.Telem = &Telem;
    runPipeline(*P, Opts);
  }

  // Extension passes under whole-program PS^na validation (opt.promote.*,
  // opt.weaken.*, opt.validate.method.psna, the promote/weaken spans). One
  // crafted program exercises every tally: a promotable thread-local na
  // location, a read-shared one, a thread-local atomic with strong modes,
  // an absorbable sc;acq fence pair, and a fence in an atomic-free thread.
  {
    std::unique_ptr<Program> P = parseOrDie(
        "na x;\nna s;\natomic y;\n"
        "thread { x@na := 1; a := x@na; fence @ sc; fence @ acq; "
        "b := y@acq; y@rel := b; return a; }\n"
        "thread { fence @ rel; c := s@na; return c; }\n"
        "thread { d := s@na; return d; }");
    PipelineOptions Opts;
    Opts.Cfg.Domain = ValueDomain::binary();
    Opts.PsCfg.Domain = ValueDomain::binary();
    Opts.EnablePromote = true;
    Opts.EnableWeaken = true;
    Opts.Telem = &Telem;
    runPipeline(*P, Opts);
    // The racy-rejection tally needs a PotentiallyRacy witness location.
    std::unique_ptr<Program> Racy =
        parseOrDie(litmusCaseByName("ex5.1-promise-racy-read").Text);
    runPipeline(*Racy, Opts);
  }

  // The atlas fold (atlas.* tallies, atlas.build span). Tiny budgets: the
  // verdicts are all bounded garbage, but every key still fires, and the
  // sweep stays fast.
  {
    atlas::AtlasOptions AO;
    AO.Seq.StepBudget = 2;
    AO.Ps.MaxStates = 20;
    AO.Telem = &Telem;
    atlas::buildAtlas(AO);
  }

  // PS^na explorer with memoization (psna.*, analysis.*, memo.*), both
  // serial and pooled so every span name fires.
  for (unsigned NumThreads : {1u, 2u}) {
    for (const LitmusCase &LC : litmusCorpus()) {
      std::unique_ptr<Program> P = parseOrDie(LC.Text);
      PsConfig Cfg;
      Cfg.Domain = LC.Domain;
      Cfg.PromiseBudget = LC.PromiseBudget;
      Cfg.SplitBudget = LC.SplitBudget;
      Cfg.NumThreads = NumThreads;
      Cfg.Telem = &Telem;
      Cfg.Memo = &Memo;
      explorePsna(*P, Cfg);
    }
  }

  // The real-world protocol corpus (realworld.*). One protocol plus its
  // mutant fire cases_run/mutants_run/bad_exhibited/states; a
  // state-starved rerun fires realworld.truncated. annotation_failures
  // only fires on a corpus bug, so its table row stays and this driver
  // never exercises it.
  {
    RealWorldRunOptions RO;
    RO.Telem = &Telem;
    runRealWorldCase(realWorldCaseByName("rw-rcu"), RO);
    runRealWorldCase(realWorldCaseByName("rw-rcu-early-retire"), RO);
    RealWorldCase Starved = realWorldCaseByName("rw-rcu");
    Starved.Budgets.MaxStates = 4;
    runRealWorldCase(Starved, RO);
  }

  // The validation server's stats vocabulary (serve.*). A bare Server's
  // statsSnapshot names every counter and gauge the `stats` op can ever
  // report — no socket traffic needed to cover the whole namespace.
  {
    serve::ServerOptions SO;
    SO.SocketPath = "/tmp/pseq-telemetry-dict-unused.sock";
    serve::Server Srv(SO);
    std::map<std::string, uint64_t> Counters;
    std::map<std::string, double> Gauges;
    Srv.statsSnapshot(Counters, Gauges);
    for (const auto &[Name, V] : Counters)
      Telem.Counters.add(Name, V);
    for (const auto &[Name, V] : Gauges)
      Telem.Counters.maxGauge(Name, V);
  }

  FiredKeys Out;
  for (const auto &[Name, V] : Telem.Counters.counters())
    Out.Keys.insert(normalizeDigits(Name));
  for (const auto &[Name, V] : Telem.Counters.gauges())
    Out.Keys.insert(normalizeDigits(Name));
  for (const auto &[Name, H] : Telem.Counters.histograms())
    Out.Keys.insert(normalizeDigits(Name));
  for (unsigned L = 0; L < Spans.lanes(); ++L) {
    for (const obs::SpanRecord &S : Spans.lane(L))
      Out.Keys.insert(normalizeDigits(S.Name));
    for (const obs::InstantRecord &I : Spans.instants(L))
      Out.Events.insert(normalizeDigits(I.Name));
  }
  return Out;
}

TEST(TelemetryDictTest, DictionaryParses) {
  std::map<std::string, std::set<std::string>> Dict = dictionaryKeys();
  // A representative of every kind must be present — guards against the
  // section being renamed or the table reformatted.
  EXPECT_GT(Dict.size(), 50u);
  EXPECT_TRUE(Dict.count("seq.enum.runs"));
  EXPECT_TRUE(Dict.count("psna.explore.threadN.steps"));
  EXPECT_TRUE(Dict.count("psna.explore.frontier"));
  EXPECT_TRUE(Dict.count("pool.steals"));
  EXPECT_TRUE(Dict.count("race_lint.analyze"));
  EXPECT_TRUE(Dict.count("opt.promote.locations"));
  EXPECT_TRUE(Dict.count("opt.weaken.fence_pairs"));
  EXPECT_TRUE(Dict.count("opt.validate.method.psna"));
  EXPECT_TRUE(Dict.count("atlas.mismatch"));
  EXPECT_TRUE(Dict.count("atlas.build"));
  EXPECT_TRUE(Dict["run.final"].count("event"));
  EXPECT_TRUE(Dict["psna.explore"].count("span"));
  EXPECT_TRUE(Dict["psna.explore"].count("event"));
}

TEST(TelemetryDictTest, EveryRuntimeKeyIsDocumented) {
  std::map<std::string, std::set<std::string>> Dict = dictionaryKeys();
  ASSERT_FALSE(Dict.empty());
  FiredKeys Fired = runtimeKeys();
  ASSERT_GT(Fired.Keys.size(), 20u) << "instrumentation did not fire";
  ASSERT_GT(Fired.Events.size(), 3u) << "no instant events fired";

  std::ostringstream Missing;
  for (const std::string &Key : Fired.Keys)
    if (!Dict.count(Key))
      Missing << "  " << Key << "\n";
  for (const std::string &Name : Fired.Events)
    if (!Dict[Name].count("event"))
      Missing << "  " << Name << " (kind event)\n";
  EXPECT_TRUE(Missing.str().empty())
      << "keys missing from the DESIGN.md telemetry dictionary "
         "(add a table row per key):\n"
      << Missing.str();
}

} // namespace

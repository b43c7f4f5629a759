//===- tests/trace_determinism_test.cpp - Telemetry thread-invariance -----===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// The flight recorder's determinism contract: running the engines at
// --threads 1, 2, and 8 with tracing on must produce bit-identical counters
// and bit-identical non-timing histograms (sizes/counts — keys without a
// ".ns"/".us"/".ms" suffix). Gauges (pool/guard/memo occupancy, peak
// frontier) and timing histograms are thread-count-dependent by nature and
// excluded. Span *sets* (the multiset of recorded span names, instant-event
// names included under an "event:" prefix) must also be stable — for the
// explorers and for the engines that fan out over them (the translation
// validator, the adequacy harness, the atlas), whose worker telemetry
// shares the caller's span recorder.
//
// This is the test teeth behind the DESIGN.md claim that the PS^na frontier
// evolves identically for every worker count (level-synchronous BFS merged
// in pop order) — if instrumentation is ever moved somewhere
// schedule-dependent, this fails.
//
//===----------------------------------------------------------------------===//

#include "adequacy/Harness.h"
#include "atlas/Atlas.h"
#include "lang/Parser.h"
#include "litmus/Corpus.h"
#include "obs/Telemetry.h"
#include "opt/Validator.h"
#include "psna/Explorer.h"
#include "seq/AdvancedRefinement.h"
#include "seq/Simulation.h"
#include "seq/BehaviorEnum.h"

#include "gtest/gtest.h"

#include <functional>
#include <map>
#include <string>

using namespace pseq;

namespace {

/// Counters + non-timing histogram fingerprints after exploring the whole
/// litmus corpus with \p NumThreads workers and spans recorded.
struct CorpusTelemetry {
  std::map<std::string, uint64_t> Counters;
  /// Key -> (count, sum, min, max, bucket checksum): equal iff the
  /// histograms are bit-identical.
  std::map<std::string, std::string> Hists;
  std::map<std::string, uint64_t> SpanNames; ///< name -> multiplicity
};

std::string histFingerprint(const obs::Histogram &H) {
  std::string F = std::to_string(H.count()) + "/" + std::to_string(H.sum()) +
                  "/" + std::to_string(H.min()) + "/" +
                  std::to_string(H.max());
  for (unsigned B = 0; B < obs::Histogram::NumBuckets; ++B)
    if (H.bucket(B))
      F += "|" + std::to_string(B) + ":" + std::to_string(H.bucket(B));
  return F;
}

/// Multiset of the span names \p Spans recorded, plus its instant-event
/// names prefixed "event:".
std::map<std::string, uint64_t> spanNames(const obs::SpanRecorder &Spans) {
  std::map<std::string, uint64_t> Out;
  for (unsigned L = 0; L < Spans.lanes(); ++L) {
    for (const obs::SpanRecord &S : Spans.lane(L))
      ++Out[S.Name];
    for (const obs::InstantRecord &I : Spans.instants(L))
      ++Out[std::string("event:") + I.Name];
  }
  return Out;
}

/// The span names recorded while \p Run drives an engine with \p
/// NumThreads workers and \p Telem attached.
std::map<std::string, uint64_t>
engineSpans(unsigned NumThreads,
            const std::function<void(unsigned, obs::Telemetry *)> &Run) {
  obs::Telemetry Telem;
  obs::SpanRecorder Spans;
  Telem.Spans = &Spans;
  Run(NumThreads, &Telem);
  // A full lane drops spans, which would make the multisets incomparable.
  EXPECT_EQ(Spans.droppedSpans(), 0u);
  return spanNames(Spans);
}

/// Checks that \p Run records the same non-empty span multiset at 1, 2
/// and 8 workers, and \returns the one-worker multiset.
std::map<std::string, uint64_t> expectSpansThreadInvariant(
    const char *What,
    const std::function<void(unsigned, obs::Telemetry *)> &Run) {
  std::map<std::string, uint64_t> S1 = engineSpans(1, Run);
  std::map<std::string, uint64_t> S2 = engineSpans(2, Run);
  std::map<std::string, uint64_t> S8 = engineSpans(8, Run);
  EXPECT_FALSE(S1.empty()) << What << ": no spans recorded";
  EXPECT_EQ(S1, S2) << What << ": span set diverged at 2 workers";
  EXPECT_EQ(S1, S8) << What << ": span set diverged at 8 workers";
  return S1;
}

CorpusTelemetry explorePsnaCorpus(unsigned NumThreads) {
  obs::Telemetry Telem;
  obs::SpanRecorder Spans;
  Telem.Spans = &Spans;
  for (const LitmusCase &LC : litmusCorpus()) {
    std::unique_ptr<Program> P = parseOrDie(LC.Text);
    PsConfig Cfg;
    Cfg.Domain = LC.Domain;
    Cfg.PromiseBudget = LC.PromiseBudget;
    Cfg.SplitBudget = LC.SplitBudget;
    Cfg.NumThreads = NumThreads;
    Cfg.Telem = &Telem;
    explorePsna(*P, Cfg);
  }

  CorpusTelemetry Out;
  // Per-worker step counters (psna.explore.threadN) depend on the worker
  // count by construction; fold them into one total instead of dropping
  // the signal.
  uint64_t ThreadSteps = 0;
  for (const auto &[Name, V] : Telem.Counters.counters()) {
    if (Name.rfind("psna.explore.thread", 0) == 0)
      ThreadSteps += V;
    else
      Out.Counters[Name] = V;
  }
  Out.Counters["psna.explore.thread*"] = ThreadSteps;
  for (const auto &[Name, H] : Telem.Counters.histograms())
    if (!obs::isTimingHistKey(Name))
      Out.Hists[Name] = histFingerprint(H);
  Out.SpanNames = spanNames(Spans);
  return Out;
}

CorpusTelemetry enumerateSeqCorpus(unsigned NumThreads) {
  obs::Telemetry Telem;
  obs::SpanRecorder Spans;
  Telem.Spans = &Spans;
  for (const LitmusCase &LC : litmusCorpus()) {
    std::unique_ptr<Program> P = parseOrDie(LC.Text);
    SeqConfig Cfg;
    Cfg.Domain = LC.Domain;
    Cfg.Universe = P->naLocs();
    Cfg.StepBudget = LC.StepBudget;
    Cfg.NumThreads = NumThreads;
    Cfg.Telem = &Telem;
    std::vector<Value> Mem(P->numLocs(), Value::of(0));
    for (unsigned T = 0; T < P->numThreads(); ++T) {
      SeqMachine M(*P, T, Cfg);
      enumerateBehaviors(M, M.initial(P->naLocs(), LocSet::empty(), Mem));
    }
  }

  CorpusTelemetry Out;
  Out.Counters = Telem.Counters.counters();
  for (const auto &[Name, H] : Telem.Counters.histograms())
    if (!obs::isTimingHistKey(Name))
      Out.Hists[Name] = histFingerprint(H);
  Out.SpanNames = spanNames(Spans);
  return Out;
}

/// A SEQ check of one corpus pair: true when it holds.
using PairCheck = bool (*)(const Program &, const Program &, SeqConfig);

bool advancedHolds(const Program &Src, const Program &Tgt, SeqConfig Cfg) {
  return checkAdvancedRefinement(Src, Tgt, Cfg).Holds;
}

bool simulationHolds(const Program &Src, const Program &Tgt, SeqConfig Cfg) {
  return checkSimulation(Src, Tgt, Cfg).Holds;
}

/// Telemetry of \p Check on every corpus pair ⊑w accepts (the simulation
/// decides both corpora exactly, so it accepts the same pairs). A failing
/// check stops at its first failing initial state, and at several workers
/// states past it may already be running, so only accepted pairs have a
/// fixed amount of work.
CorpusTelemetry checkAcceptedPairs(unsigned NumThreads, PairCheck Check) {
  obs::Telemetry Telem;
  obs::SpanRecorder Spans;
  Telem.Spans = &Spans;
  for (const auto *Corpus : {&refinementCorpus(), &extensionCorpus()})
    for (const RefinementCase &RC : *Corpus) {
      if (!RC.AdvancedHolds)
        continue;
      std::unique_ptr<Program> Src = parseOrDie(RC.Src);
      std::unique_ptr<Program> Tgt = parseOrDie(RC.Tgt);
      SeqConfig Cfg;
      Cfg.Domain = RC.Domain;
      Cfg.StepBudget = RC.StepBudget;
      Cfg.NumThreads = NumThreads;
      Cfg.Telem = &Telem;
      EXPECT_TRUE(Check(*Src, *Tgt, Cfg)) << RC.Name;
    }

  CorpusTelemetry Out;
  Out.Counters = Telem.Counters.counters();
  for (const auto &[Name, H] : Telem.Counters.histograms())
    if (!obs::isTimingHistKey(Name))
      Out.Hists[Name] = histFingerprint(H);
  Out.SpanNames = spanNames(Spans);
  return Out;
}

void expectSameTelemetry(const CorpusTelemetry &A, const CorpusTelemetry &B,
                         const char *What) {
  EXPECT_EQ(A.Counters, B.Counters) << What << ": counters diverged";
  EXPECT_EQ(A.Hists, B.Hists) << What << ": histograms diverged";
  EXPECT_EQ(A.SpanNames, B.SpanNames) << What << ": span set diverged";
}

TEST(TraceDeterminismTest, PsnaCorpusTelemetryThreadInvariant) {
  CorpusTelemetry T1 = explorePsnaCorpus(1);
  CorpusTelemetry T2 = explorePsnaCorpus(2);
  CorpusTelemetry T8 = explorePsnaCorpus(8);
  // Sanity: the instrumentation actually fired.
  EXPECT_GT(T1.Counters.count("psna.explore.runs"), 0u);
  EXPECT_GT(T1.Hists.count("psna.explore.frontier"), 0u);
  EXPECT_GT(T1.Hists.count("psna.explore.behavior_set"), 0u);
  EXPECT_GT(T1.SpanNames.size(), 0u);
  EXPECT_GT(T1.SpanNames.count("psna.level"), 0u);
  EXPECT_GT(T1.SpanNames.count("psna.expand"), 0u);
  EXPECT_GT(T1.SpanNames.count("event:psna.explore"), 0u);
  expectSameTelemetry(T1, T2, "psna 1 vs 2");
  expectSameTelemetry(T1, T8, "psna 1 vs 8");
}

TEST(TraceDeterminismTest, PsnaCertTableSavesSearches) {
  // The certification table answers repeated ⟨thread, T, M⟩ queries, and
  // the merge discipline makes its hits a function of the BFS alone:
  // identical at 1/2/8 workers, and pinned here so that a change losing
  // table hits (or adding searches) fails a test, not only a time trend.
  CorpusTelemetry T1 = explorePsnaCorpus(1);
  CorpusTelemetry T2 = explorePsnaCorpus(2);
  CorpusTelemetry T8 = explorePsnaCorpus(8);
  EXPECT_GT(T1.Counters["psna.cert.table_hits"], 0u);
  EXPECT_EQ(T1.Counters["psna.cert.table_hits"],
            T2.Counters["psna.cert.table_hits"]);
  EXPECT_EQ(T1.Counters["psna.cert.table_hits"],
            T8.Counters["psna.cert.table_hits"]);
  // Litmus-corpus totals at the corpus budgets. The promise-free rule runs
  // one case, lb-rel, without promises. Every certification query is
  // either a search or a table hit, and the queries do not depend on how
  // they split: 1,566 + 14,988 = 16,554. A failed search also answers for
  // every state it visited, so most hits land on keys no search started
  // from.
  EXPECT_EQ(T1.Counters["psna.promise_free_skips"], 1u);
  uint64_t Searches = T1.Counters["psna.cert.searches"];
  uint64_t TableHits = T1.Counters["psna.cert.table_hits"];
  EXPECT_EQ(Searches, 1566u);
  EXPECT_EQ(T1.Counters["psna.cert.nodes"], 19242u);
  EXPECT_EQ(TableHits, 14988u);
  EXPECT_EQ(Searches + TableHits, 16554u);
}

TEST(TraceDeterminismTest, SeqCorpusTelemetryThreadInvariant) {
  CorpusTelemetry T1 = enumerateSeqCorpus(1);
  CorpusTelemetry T2 = enumerateSeqCorpus(2);
  CorpusTelemetry T8 = enumerateSeqCorpus(8);
  EXPECT_GT(T1.Counters.count("seq.enum.behaviors_emitted"), 0u);
  EXPECT_GT(T1.Hists.count("seq.enum.behavior_set"), 0u);
  EXPECT_GT(T2.SpanNames.count("seq.enum"), 0u);
  expectSameTelemetry(T1, T2, "seq 1 vs 2");
  expectSameTelemetry(T1, T8, "seq 1 vs 8");
}

TEST(TraceDeterminismTest, AdvancedMatcherCountersThreadInvariant) {
  // The ⊑w matcher's work counts come from one source graph and one oracle
  // game per initial state, so they cannot depend on which worker ran
  // which state.
  CorpusTelemetry T1 = checkAcceptedPairs(1, advancedHolds);
  CorpusTelemetry T2 = checkAcceptedPairs(2, advancedHolds);
  CorpusTelemetry T8 = checkAcceptedPairs(8, advancedHolds);
  for (const char *Key :
       {"seq.match.behaviors", "seq.match.nodes", "seq.game.nodes",
        "seq.game.memo_hits", "seq.source.states"}) {
    EXPECT_GT(T1.Counters[Key], 0u) << Key;
    EXPECT_EQ(T1.Counters[Key], T2.Counters[Key]) << Key << " at 2 workers";
    EXPECT_EQ(T1.Counters[Key], T8.Counters[Key]) << Key << " at 8 workers";
  }
  expectSameTelemetry(T1, T2, "advanced 1 vs 2");
  expectSameTelemetry(T1, T8, "advanced 1 vs 8");
}

TEST(TraceDeterminismTest, SimulationCountersThreadInvariant) {
  // One source graph, one target graph and one oracle game per initial
  // state, folded in index order by the shared init sweep: the simulation's
  // work counts cannot depend on which worker ran which state.
  CorpusTelemetry T1 = checkAcceptedPairs(1, simulationHolds);
  CorpusTelemetry T2 = checkAcceptedPairs(2, simulationHolds);
  CorpusTelemetry T8 = checkAcceptedPairs(8, simulationHolds);
  for (const char *Key :
       {"seq.sim.nodes", "seq.sim.game_nodes", "seq.source.states",
        "seq.machine.successor_calls"}) {
    EXPECT_GT(T1.Counters[Key], 0u) << Key;
    EXPECT_EQ(T1.Counters[Key], T2.Counters[Key]) << Key << " at 2 workers";
    EXPECT_EQ(T1.Counters[Key], T8.Counters[Key]) << Key << " at 8 workers";
  }
  EXPECT_GT(T1.SpanNames.count("seq.check.simulation"), 0u);
  expectSameTelemetry(T1, T2, "simulation 1 vs 2");
  expectSameTelemetry(T1, T8, "simulation 1 vs 8");
}

TEST(TraceDeterminismTest, ValidatorSpansThreadInvariant) {
  // Two program threads, so the validator itself fans out at 2 and 8.
  std::unique_ptr<Program> Src =
      parseOrDie("na x; atomic y;\n"
                 "thread { x@na := 1; a := x@na; y@rel := a; return a; }\n"
                 "thread { b := y@acq; return b; }\n");
  std::unique_ptr<Program> Tgt =
      parseOrDie("na x; atomic y;\n"
                 "thread { x@na := 1; a := 1; y@rel := a; return a; }\n"
                 "thread { b := y@acq; return b; }\n");
  for (ValidationMethod M :
       {ValidationMethod::Simple, ValidationMethod::Advanced,
        ValidationMethod::Simulation})
    expectSpansThreadInvariant(
        validationMethodName(M), [&](unsigned N, obs::Telemetry *Telem) {
          SeqConfig Cfg;
          Cfg.Domain = ValueDomain::binary();
          Cfg.NumThreads = N;
          Cfg.Telem = Telem;
          EXPECT_TRUE(validateTransform(*Src, *Tgt, Cfg, M).Ok);
        });
}

TEST(TraceDeterminismTest, AdequacySpansThreadInvariant) {
  for (const RefinementCase &RC : refinementCorpus()) {
    // A failing SEQ check stops at its first failing initial state; at
    // several workers, states past it may already be running when the
    // failure is found, so only pairs both SEQ checks accept have a fixed
    // amount of work.
    if (RC.HasLoops || !RC.SimpleHolds || !RC.AdvancedHolds)
      continue;
    std::unique_ptr<Program> Src = parseOrDie(RC.Src);
    std::unique_ptr<Program> Tgt = parseOrDie(RC.Tgt);
    size_t Applicable = 0;
    std::map<std::string, uint64_t> Spans = expectSpansThreadInvariant(
        RC.Name.c_str(), [&](unsigned N, obs::Telemetry *Telem) {
          SeqConfig SeqCfg;
          SeqCfg.Domain = RC.Domain;
          SeqCfg.StepBudget = RC.StepBudget;
          PsConfig PsCfg;
          PsCfg.Domain = RC.Domain;
          PsCfg.PromiseBudget = 0;
          SeqCfg.NumThreads = PsCfg.NumThreads = N;
          SeqCfg.Telem = PsCfg.Telem = Telem;
          Applicable = runAdequacy(RC.Name, *Src, *Tgt, SeqCfg, PsCfg,
                                   RC.HasLoops)
                           .Contexts.size();
        });
    // Each applicable context records one adequacy.context span into the
    // shared recorder, on whichever worker ran it; the multisets above are
    // equal, so this holds at 1, 2 and 8 workers.
    EXPECT_GT(Applicable, 0u) << RC.Name;
    EXPECT_EQ(Spans["adequacy.context"], Applicable) << RC.Name;
    EXPECT_EQ(Spans["adequacy.pair"], 1u) << RC.Name;
  }
}

TEST(TraceDeterminismTest, AtlasSpansThreadInvariant) {
  expectSpansThreadInvariant("atlas", [](unsigned N, obs::Telemetry *Telem) {
    atlas::AtlasOptions Opts;
    // The whole atlas records more spans than one lane holds, so every
    // PS^na exploration stops after its first level (deterministically: the
    // state cap is checked in the merge) and the contexts are promise-free.
    Opts.Ps.PromiseBudget = 0;
    Opts.Ps.MaxStates = 0;
    Opts.NumThreads = Opts.Seq.NumThreads = Opts.Ps.NumThreads = N;
    Opts.Telem = Telem;
    atlas::buildAtlas(Opts);
  });
}

} // namespace

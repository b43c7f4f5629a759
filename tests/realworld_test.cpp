//===- tests/realworld_test.cpp - RealWorld corpus stack-wide suite -------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// The real-world protocol corpus (litmus/RealWorld.h) as the stack-wide
// stress suite, bottom-up:
//  * corpus registration invariants (shape, explicit budgets, mutant
//    bookkeeping, lookup behavior including the aborting variants);
//  * PS^na exploration against every annotation at 1/2/8 workers,
//    bit-identically;
//  * mutants exhibiting their injected bug dynamically, and the bug being
//    absent from the parent protocol's behavior set;
//  * a promise-robustness sample (the cheap cases re-run at
//    PromiseBudget=1 — certification must not unlock any excluded
//    behavior);
//  * the static race lint cross-validated against the explorer's dynamic
//    race observations;
//  * the full optimizer pipeline under translation validation (Simulation
//    method — the per-thread enumeration checkers cannot close the
//    corpus's spin loops), with annotations re-checked on the optimized
//    programs and a whole-program PS^na adequacy cross-check;
//  * budget-truncation honesty over every TruncationCause: a starved run
//    must report a bounded verdict naming the right budget, never a clean
//    pass;
//  * a batch of pipeline jobs through the validation server.
//
//===----------------------------------------------------------------------===//

#include "analysis/RaceLint.h"
#include "guard/Guard.h"
#include "lang/Parser.h"
#include "litmus/Corpus.h"
#include "litmus/RealWorld.h"
#include "obs/Telemetry.h"
#include "opt/Pipeline.h"
#include "opt/Validator.h"
#include "psna/Explorer.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/Wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#ifdef __unix__
#include <unistd.h>
#define PSEQ_TEST_POSIX 1
#endif

using namespace pseq;

namespace {

bool contains(const std::vector<std::string> &V, const std::string &S) {
  return std::find(V.begin(), V.end(), S) != V.end();
}

/// Renders a run's annotation failures for test diagnostics.
std::string describe(const RealWorldRunResult &R) {
  std::string Out;
  for (const std::string &S : R.MissingIncludes)
    Out += " missing-include:" + S;
  for (const std::string &S : R.ForbiddenSeen)
    Out += " forbidden-seen:" + S;
  for (const std::string &S : R.MissingBad)
    Out += " missing-bad:" + S;
  if (!R.LintMatches)
    Out += " lint-mismatch";
  if (R.Behaviors.truncated())
    Out += std::string(" truncated:") + truncationCauseName(R.Behaviors.Cause);
  return Out.empty() ? " (clean)" : Out;
}

//===----------------------------------------------------------------------===//
// Corpus registration invariants
//===----------------------------------------------------------------------===//

TEST(RealWorldCorpus, ShapeAndMutantBookkeeping) {
  const std::vector<RealWorldCase> &C = realWorldCorpus();
  ASSERT_GE(C.size(), 15u);

  std::set<std::string> Names;
  std::set<std::string> Protocols;
  std::set<std::string> ProtocolsWithMutant;
  for (const RealWorldCase &RC : C) {
    EXPECT_TRUE(Names.insert(RC.Name).second) << "duplicate name " << RC.Name;
    EXPECT_EQ(RC.Name.rfind("rw-", 0), 0u)
        << RC.Name << " must carry the rw- prefix";
    EXPECT_FALSE(RC.SourceRef.empty()) << RC.Name << " needs provenance";
    EXPECT_FALSE(RC.Protocol.empty());
    EXPECT_FALSE(RC.MustInclude.empty())
        << RC.Name << ": a case that requires nothing tests nothing";

    // Parseable, and the annotations are disjoint.
    ParseResult P = parseProgram(RC.Text);
    EXPECT_TRUE(P.ok()) << RC.Name << ": " << P.Error;
    for (const std::string &S : RC.MustInclude)
      EXPECT_FALSE(contains(RC.MustExclude, S))
          << RC.Name << " requires and forbids " << S;

    if (RC.IsMutant) {
      ProtocolsWithMutant.insert(RC.Protocol);
      EXPECT_FALSE(RC.BadBehaviors.empty())
          << RC.Name << ": a mutant must name its bug's signature";
      for (const std::string &S : RC.BadBehaviors)
        EXPECT_TRUE(contains(RC.MustInclude, S))
            << RC.Name << ": bad behavior " << S
            << " must be in MustInclude (the model must exhibit it)";
      const RealWorldCase *Parent = realWorldCaseByNameMaybe(RC.MutantOf);
      ASSERT_NE(Parent, nullptr)
          << RC.Name << ": MutantOf " << RC.MutantOf << " does not resolve";
      EXPECT_FALSE(Parent->IsMutant);
      EXPECT_EQ(Parent->Protocol, RC.Protocol);
    } else {
      Protocols.insert(RC.Protocol);
      EXPECT_TRUE(RC.BadBehaviors.empty())
          << RC.Name << ": protocols carry no bug signature";
      EXPECT_TRUE(RC.MutantOf.empty());
    }
  }

  // The ISSUE floor: at least seven protocols, each with a mutant.
  EXPECT_GE(Protocols.size(), 7u);
  for (const std::string &P : Protocols)
    EXPECT_TRUE(ProtocolsWithMutant.count(P))
        << "protocol " << P << " has no broken mutant";
}

TEST(RealWorldCorpus, EveryBudgetIsExplicit) {
  // LitmusCase's defaulted StepBudget=24 silently truncates corpus-sized
  // programs, which is why RealWorldBudgets has no usable default: a case
  // that forgot to fill the struct in fails registration here.
  for (const RealWorldCase &RC : realWorldCorpus()) {
    EXPECT_TRUE(RC.Budgets.ExplicitlySet)
        << RC.Name << " registered with default-constructed budgets";
    EXPECT_GT(RC.Budgets.StepBudget, 0u) << RC.Name;
    EXPECT_GT(RC.Budgets.MaxStates, 0u) << RC.Name;
    EXPECT_GT(RC.Budgets.CertNodeBudget, 0u) << RC.Name;
    EXPECT_GT(RC.Budgets.DeadlineMs, 0u) << RC.Name;
    EXPECT_GT(RC.Budgets.MemMb, 0u) << RC.Name;
    EXPECT_FALSE(RC.Domain.values().empty()) << RC.Name;
  }
}

//===----------------------------------------------------------------------===//
// Lookups: Maybe variants and the aborting contract
//===----------------------------------------------------------------------===//

TEST(RealWorldCorpus, MaybeLookups) {
  EXPECT_NE(realWorldCaseByNameMaybe("rw-ms-queue"), nullptr);
  EXPECT_EQ(realWorldCaseByNameMaybe("rw-no-such-case"), nullptr);
  EXPECT_EQ(realWorldCaseByNameMaybe(""), nullptr);

  // The litmus and refinement corpora expose the same pattern.
  EXPECT_NE(litmusCaseByNameMaybe(litmusCorpus().front().Name), nullptr);
  EXPECT_EQ(litmusCaseByNameMaybe("no-such-litmus"), nullptr);
  EXPECT_NE(refinementCaseByNameMaybe(refinementCorpus().front().Name),
            nullptr);
  EXPECT_EQ(refinementCaseByNameMaybe("no-such-refinement"), nullptr);
}

TEST(RealWorldCorpusDeathTest, AbortingLookupsAbort) {
  EXPECT_DEATH(realWorldCaseByName("rw-no-such-case"),
               "unknown realworld case 'rw-no-such-case'");
  EXPECT_DEATH(litmusCaseByName("no-such-litmus"),
               "unknown litmus case 'no-such-litmus'");
  EXPECT_DEATH(refinementCaseByName("no-such-refinement"),
               "unknown refinement case 'no-such-refinement'");
}

//===----------------------------------------------------------------------===//
// PS^na exploration vs annotations, bit-identical across worker counts
//===----------------------------------------------------------------------===//

TEST(RealWorldExplore, AnnotationsHoldAtEveryWorkerCount) {
  for (const RealWorldCase &RC : realWorldCorpus()) {
    std::vector<std::string> BaselineStrs;
    unsigned BaselineStates = 0;
    for (unsigned NumThreads : {1u, 2u, 8u}) {
      RealWorldRunOptions Opts;
      Opts.NumThreads = NumThreads;
      RealWorldRunResult R = runRealWorldCase(RC, Opts);
      EXPECT_TRUE(R.clean())
          << RC.Name << " at " << NumThreads << " workers:" << describe(R);
      if (NumThreads == 1) {
        BaselineStrs = R.Behaviors.strs();
        BaselineStates = R.Behaviors.StatesExplored;
        EXPECT_FALSE(BaselineStrs.empty()) << RC.Name;
      } else {
        EXPECT_EQ(R.Behaviors.strs(), BaselineStrs)
            << RC.Name << ": behavior set drifted at " << NumThreads
            << " workers";
        EXPECT_EQ(R.Behaviors.StatesExplored, BaselineStates)
            << RC.Name << ": state count drifted at " << NumThreads
            << " workers";
      }
    }
  }
}

TEST(RealWorldExplore, MutantsExhibitBugsTheirProtocolForbids) {
  // Dynamic version of the mutant contract, independent of the annotation
  // lists: the injected bug's behavior shows up in the mutant's explored
  // set and not in the parent protocol's.
  for (const RealWorldCase &RC : realWorldCorpus()) {
    if (!RC.IsMutant)
      continue;
    const RealWorldCase &Parent = realWorldCaseByName(RC.MutantOf);
    RealWorldRunResult MutantRun = runRealWorldCase(RC);
    RealWorldRunResult ParentRun = runRealWorldCase(Parent);
    ASSERT_FALSE(MutantRun.Behaviors.truncated()) << RC.Name;
    ASSERT_FALSE(ParentRun.Behaviors.truncated()) << Parent.Name;
    for (const std::string &Bad : RC.BadBehaviors) {
      EXPECT_TRUE(MutantRun.Behaviors.containsStr(Bad))
          << RC.Name << " does not exhibit its own bug " << Bad;
      EXPECT_FALSE(ParentRun.Behaviors.containsStr(Bad))
          << Parent.Name << " exhibits its mutant's bug " << Bad
          << " — the mutant distinguishes nothing";
    }
  }
}

TEST(RealWorldExplore, ExclusionsArePromiseRobustOnCheapCases) {
  // The Std preset runs promise-free (certification multiplies corpus
  // runtime ~1000x); this samples the cheap cases at PromiseBudget=1 to
  // pin that promising unlocks no excluded behavior. The full corpus was
  // verified once by hand the same way. The lint stays off: with it on,
  // the promise-free rule would run the first three promise-free too.
  RealWorldRunOptions Opts;
  Opts.Lint = false;
  for (const char *Name :
       {"rw-futex", "rw-spsc-ring", "rw-rcu", "rw-ticket-lock"}) {
    RealWorldCase RC = realWorldCaseByName(Name);
    RC.Budgets.PromiseBudget = 1;
    RealWorldRunResult R = runRealWorldCase(RC, Opts);
    EXPECT_FALSE(R.Behaviors.PromisesSkipped) << Name;
    EXPECT_TRUE(R.clean()) << Name << " at PromiseBudget=1:" << describe(R);
  }
}

TEST(RealWorldExplore, StaticLintAgreesWithDynamicRaceObservations) {
  using analysis::RaceVerdict;
  for (const RealWorldCase &RC : realWorldCorpus()) {
    RealWorldRunResult R = runRealWorldCase(RC);
    ASSERT_FALSE(R.Behaviors.truncated()) << RC.Name;
    ASSERT_TRUE(R.Behaviors.Lint.has_value()) << RC.Name;
    EXPECT_EQ(*R.Behaviors.Lint, RC.ExpectedLint) << RC.Name;
    if (RC.ExpectedLint == RaceVerdict::RaceFree ||
        RC.ExpectedLint == RaceVerdict::AtomicsOnly) {
      // A proof of race freedom must be corroborated by the explorer
      // never enabling a racy transition.
      EXPECT_EQ(R.Behaviors.RaceSteps, 0u)
          << RC.Name << ": static verdict "
          << analysis::raceVerdictName(RC.ExpectedLint)
          << " but the explorer observed races (lint unsoundness)";
    } else {
      // Every PotentiallyRacy case in this corpus is a mutant whose bug
      // is a real race, so the dynamic oracle must see it.
      EXPECT_GT(R.Behaviors.RaceSteps, 0u)
          << RC.Name << ": flagged potentially-racy but no racy "
          << "transition was ever enabled (annotation too weak?)";
    }
  }
}

//===----------------------------------------------------------------------===//
// Optimizer pipeline under translation validation
//===----------------------------------------------------------------------===//

TEST(RealWorldPipeline, ValidatesAndPreservesAnnotations) {
  unsigned CorpusRewrites = 0;
  for (const RealWorldCase &RC : realWorldCorpus()) {
    std::unique_ptr<Program> P = parseOrDie(RC.Text);
    PipelineOptions Opts;
    // Simulation closes the corpus's spin loops exactly; the enumeration
    // checkers would drown in unrolled read-value sequences.
    Opts.Method = ValidationMethod::Simulation;
    Opts.Cfg.Domain = RC.Domain;
    Opts.Cfg.StepBudget = RC.Budgets.StepBudget;
    Opts.EnableConstProp = true;
    Opts.EnablePromote = true;
    Opts.EnableWeaken = true;
    Opts.PsCfg = realWorldPsConfig(RC);
    PipelineResult PR = runPipeline(*P, Opts);
    EXPECT_TRUE(PR.AllValidated) << RC.Name;
    for (const PassReport &Rep : PR.Reports) {
      EXPECT_TRUE(Rep.Error.empty())
          << RC.Name << " " << Rep.Name << ": " << Rep.Error;
      if (Rep.Rewrites > 0) {
        CorpusRewrites += Rep.Rewrites;
        EXPECT_TRUE(Rep.Validated) << RC.Name << " " << Rep.Name;
      }
    }

    // Whole-program adequacy: the optimized program's PS^na outcomes are
    // included in the original's.
    ValidationResult Adequacy =
        validatePsTransform(*P, *PR.Prog, realWorldPsConfig(RC));
    EXPECT_TRUE(Adequacy.Ok)
        << RC.Name << ": " << Adequacy.Counterexample;

    // And the annotations survive optimization. Exclusions must survive
    // for every case (outcome inclusion can only shrink the set). The
    // inclusions are only required of the correct protocols: a mutant's
    // racy behaviors are legally *removable* — DSE eliminates the dead
    // first store of rw-spsc-ring-rlx-publish precisely because its
    // readers race, which is the paper's sequential reasoning at work —
    // so an optimized mutant may no longer exhibit its bug.
    PsBehaviorSet After = explorePsna(*PR.Prog, realWorldPsConfig(RC));
    ASSERT_FALSE(After.truncated()) << RC.Name;
    for (const std::string &S : RC.MustExclude)
      EXPECT_FALSE(After.containsStr(S))
          << RC.Name << ": optimization introduced forbidden behavior "
          << S;
    if (!RC.IsMutant)
      for (const std::string &S : RC.MustInclude)
        EXPECT_TRUE(After.containsStr(S))
            << RC.Name << ": optimization lost required behavior " << S;
  }
  // Non-vacuity: the corpus must make at least one pass actually fire
  // (today: DSE on rw-spsc-ring-rlx-publish, weaken on the reclamation
  // mutants), otherwise "the pipeline validates the corpus" tests
  // nothing.
  EXPECT_GE(CorpusRewrites, 1u);
}

TEST(RealWorldPipeline, LoopFreeCasesValidateExhaustively) {
  // The straight-line protocols fit the per-thread enumeration checkers:
  // the identity transform must validate with no budget consumed as an
  // excuse (Ok and not bounded) under the case's own StepBudget.
  for (const char *Name :
       {"rw-seqlock", "rw-seqlock-rlx-data", "rw-futex", "rw-futex-rlx-wake"}) {
    const RealWorldCase &RC = realWorldCaseByName(Name);
    std::unique_ptr<Program> P = parseOrDie(RC.Text);
    SeqConfig Cfg;
    Cfg.Domain = RC.Domain;
    Cfg.StepBudget = RC.Budgets.StepBudget;
    ValidationResult V = validateTransform(*P, *P, Cfg);
    EXPECT_TRUE(V.Ok) << Name << ": " << V.Counterexample;
    EXPECT_FALSE(V.Bounded)
        << Name << " truncated under its own corpus budget ("
        << truncationCauseName(V.Cause) << ")";
  }
}

//===----------------------------------------------------------------------===//
// Budget-truncation honesty, one test per TruncationCause
//===----------------------------------------------------------------------===//

/// Runs rw-ms-queue with mutated budgets/guard and asserts the bounded
/// verdict names \p Want — and that a starved run never reports clean.
void expectPsTruncation(TruncationCause Want,
                        void (*Mutate)(RealWorldCase &,
                                       guard::ResourceGuard &)) {
  RealWorldCase RC = realWorldCaseByName("rw-ms-queue");
  guard::ResourceGuard Guard;
  Mutate(RC, Guard);
  RealWorldRunOptions Opts;
  Opts.Guard = &Guard;
  RealWorldRunResult R = runRealWorldCase(RC, Opts);
  EXPECT_TRUE(R.Behaviors.truncated())
      << "expected truncation by " << truncationCauseName(Want);
  EXPECT_EQ(R.Behaviors.Cause, Want)
      << "got " << truncationCauseName(R.Behaviors.Cause);
  EXPECT_FALSE(R.clean())
      << "a truncated exploration must never report a clean pass";
}

TEST(RealWorldTruncation, StateBudgetIsHonest) {
  expectPsTruncation(TruncationCause::StateBudget,
                     [](RealWorldCase &RC, guard::ResourceGuard &) {
                       RC.Budgets.MaxStates = 4;
                     });
}

TEST(RealWorldTruncation, CertBudgetIsHonest) {
  // Promise certification must be attempted for the cause to fire.
  expectPsTruncation(TruncationCause::CertBudget,
                     [](RealWorldCase &RC, guard::ResourceGuard &) {
                       RC.Budgets.PromiseBudget = 1;
                       RC.Budgets.CertNodeBudget = 1;
                     });
}

TEST(RealWorldTruncation, DeadlineIsHonest) {
  expectPsTruncation(TruncationCause::Deadline,
                     [](RealWorldCase &, guard::ResourceGuard &G) {
                       G.setDeadlineInMs(0); // already expired
                     });
}

TEST(RealWorldTruncation, MemBudgetIsHonest) {
  expectPsTruncation(TruncationCause::MemBudget,
                     [](RealWorldCase &, guard::ResourceGuard &G) {
                       G.setMemLimitBytes(1);
                     });
}

TEST(RealWorldTruncation, CancellationIsHonest) {
  static guard::CancellationToken Token;
  Token.tripAfterPolls(3);
  expectPsTruncation(TruncationCause::Cancelled,
                     [](RealWorldCase &, guard::ResourceGuard &G) {
                       G.setToken(&Token);
                     });
}

TEST(RealWorldTruncation, SeqStepBudgetIsHonest) {
  // The per-thread SEQ validator under a LitmusCase-sized step budget:
  // corpus programs do not fit, and the verdict must say so rather than
  // claim an exhaustive pass.
  const RealWorldCase &RC = realWorldCaseByName("rw-futex");
  std::unique_ptr<Program> P = parseOrDie(RC.Text);
  SeqConfig Cfg;
  Cfg.Domain = RC.Domain;
  Cfg.StepBudget = 4;
  ValidationResult V = validateTransform(*P, *P, Cfg);
  EXPECT_TRUE(V.Ok);
  EXPECT_TRUE(V.Bounded);
  EXPECT_EQ(V.Cause, TruncationCause::StepBudget);
}

TEST(RealWorldTruncation, BehaviorCapIsHonest) {
  const RealWorldCase &RC = realWorldCaseByName("rw-futex");
  std::unique_ptr<Program> P = parseOrDie(RC.Text);
  SeqConfig Cfg;
  Cfg.Domain = RC.Domain;
  Cfg.StepBudget = RC.Budgets.StepBudget;
  Cfg.MaxBehaviors = 1;
  ValidationResult V = validateTransform(*P, *P, Cfg);
  EXPECT_TRUE(V.Ok);
  EXPECT_TRUE(V.Bounded);
  EXPECT_EQ(V.Cause, TruncationCause::BehaviorCap);
}

//===----------------------------------------------------------------------===//
// Telemetry
//===----------------------------------------------------------------------===//

TEST(RealWorldTelemetry, CountersTallyRunsAndMutants) {
  obs::Telemetry Telem;
  RealWorldRunOptions Opts;
  Opts.Telem = &Telem;
  runRealWorldCase(realWorldCaseByName("rw-rcu"), Opts);
  runRealWorldCase(realWorldCaseByName("rw-rcu-early-retire"), Opts);
  EXPECT_EQ(Telem.Counters.counter("realworld.cases_run"), 2u);
  EXPECT_EQ(Telem.Counters.counter("realworld.mutants_run"), 1u);
  EXPECT_EQ(Telem.Counters.counter("realworld.bad_exhibited"), 1u);
  EXPECT_GT(Telem.Counters.counter("realworld.states"), 0u);
  EXPECT_EQ(Telem.Counters.counter("realworld.annotation_failures"), 0u);
  EXPECT_EQ(Telem.Counters.counter("realworld.truncated"), 0u);

  // A starved run tallies truncated, not annotation_failures — truncation
  // is "no verdict", not "failed verdict".
  RealWorldCase Starved = realWorldCaseByName("rw-rcu");
  Starved.Budgets.MaxStates = 4;
  runRealWorldCase(Starved, Opts);
  EXPECT_EQ(Telem.Counters.counter("realworld.truncated"), 1u);
  EXPECT_EQ(Telem.Counters.counter("realworld.annotation_failures"), 0u);
}

//===----------------------------------------------------------------------===//
// The validation server runs the corpus as pipeline jobs
//===----------------------------------------------------------------------===//

#ifdef PSEQ_TEST_POSIX

namespace {

std::string makeTempDir() {
  char Template[] = "/tmp/pseq-realworld-test-XXXXXX";
  const char *Dir = mkdtemp(Template);
  EXPECT_NE(Dir, nullptr);
  return Dir ? Dir : "/tmp";
}

/// Runs a server on its own thread; joins on destruction.
struct ServerHandle {
  std::unique_ptr<serve::Server> Srv;
  std::thread Runner;

  explicit ServerHandle(serve::ServerOptions Opts)
      : Srv(std::make_unique<serve::Server>(std::move(Opts))) {}

  bool start() {
    std::string Err;
    if (!Srv->start(Err)) {
      ADD_FAILURE() << "server start failed: " << Err;
      return false;
    }
    Runner = std::thread([this] { Srv->run(); });
    return true;
  }

  ~ServerHandle() {
    Srv->requestStop();
    if (Runner.joinable())
      Runner.join();
  }
};

/// Submits \p Jobs on one connection and collects one result per id.
std::map<uint64_t, serve::JobResult>
submitBatch(const std::string &Socket,
            const std::vector<serve::JobRequest> &Jobs) {
  std::map<uint64_t, serve::JobResult> Results;
  int Fd = serve::connectUnix(Socket);
  if (Fd < 0) {
    ADD_FAILURE() << "cannot connect to " << Socket;
    return Results;
  }
  for (const serve::JobRequest &J : Jobs)
    EXPECT_TRUE(serve::sendFrame(Fd, serve::encodeJobRequest(J)));
  std::string Payload, Err;
  while (Results.size() < Jobs.size()) {
    if (!serve::recvFrame(Fd, Payload, &Err)) {
      ADD_FAILURE() << "connection lost after " << Results.size() << "/"
                    << Jobs.size() << " replies: " << Err;
      break;
    }
    serve::JobResult R;
    if (!serve::parseJobResult(Payload, R, Err)) {
      ADD_FAILURE() << "bad reply: " << Err;
      break;
    }
    EXPECT_TRUE(Results.emplace(R.Id, R).second)
        << "duplicate reply for job " << R.Id;
  }
  serve::closeFd(Fd);
  return Results;
}

} // namespace

TEST(RealWorldServer, CorpusBatchValidatesWithMatchingLint) {
  std::string Dir = makeTempDir();
  serve::ServerOptions SO;
  SO.SocketPath = Dir + "/srv.sock";
  SO.NumWorkers = 2;
  SO.Policy.Isolate = false; // in-process workers: TSan-safe
  ServerHandle H(std::move(SO));
  ASSERT_TRUE(H.start());

  const std::vector<RealWorldCase> &Corpus = realWorldCorpus();
  std::vector<serve::JobRequest> Jobs;
  for (size_t I = 0; I != Corpus.size(); ++I) {
    serve::JobRequest J;
    J.Id = I + 1;
    J.Source = Corpus[I].Text; // no target: a full-pipeline job
    // Simulation closes the corpus spin loops; the enumeration checkers
    // would blow the deadline on any pass that fires in a loopy thread.
    J.Method = ValidationMethod::Simulation;
    J.StepBudget = Corpus[I].Budgets.StepBudget;
    J.DeadlineMs = Corpus[I].Budgets.DeadlineMs;
    J.MemMb = Corpus[I].Budgets.MemMb;
    Jobs.push_back(std::move(J));
  }
  std::map<uint64_t, serve::JobResult> Results =
      submitBatch(Dir + "/srv.sock", Jobs);
  ASSERT_EQ(Results.size(), Jobs.size());
  for (size_t I = 0; I != Corpus.size(); ++I) {
    const serve::JobResult &R = Results.at(I + 1);
    EXPECT_EQ(R.Status, serve::JobStatus::Ok)
        << Corpus[I].Name << ": " << serve::jobStatusName(R.Status) << " "
        << R.Detail;
    EXPECT_EQ(R.Lint, analysis::raceVerdictName(Corpus[I].ExpectedLint))
        << Corpus[I].Name;
  }

  // Resubmitting the identical batch is answered from the verdict cache.
  std::map<uint64_t, serve::JobResult> Again =
      submitBatch(Dir + "/srv.sock", Jobs);
  ASSERT_EQ(Again.size(), Jobs.size());
  for (const auto &[Id, R] : Again)
    EXPECT_TRUE(R.CacheHit) << "job " << Id << " missed the verdict cache";
}

#endif // PSEQ_TEST_POSIX

} // namespace

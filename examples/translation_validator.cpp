//===- examples/translation_validator.cpp - Alive2-style validation -------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Checks whether a target program refines a source program in SEQ — under
// both the simple (Def 2.4) and advanced (Def 3.3) notions — exactly the
// "SMT-based translation validation" use case §7 sketches for the model:
//
//   translation_validator [--method NAME] source.pseq target.pseq
//
// By default the file mode prints all three verdicts (⊑, ⊑w and the
// Fig. 6 simulation) plus the validator's; `--method NAME` (simple |
// advanced | simulation) runs the validator under that single decision
// procedure — a typo lists the available methods and exits 2 instead of
// aborting.
//
// Without file arguments it runs the paper's example corpus and prints
// the verdict table (DESIGN.md experiment E3/E4).
//
//===----------------------------------------------------------------------===//

#include "litmus/Corpus.h"
#include "opt/Validator.h"
#include "seq/AdvancedRefinement.h"
#include "seq/Simulation.h"
#include "seq/SimpleRefinement.h"
#include "support/CliArgs.h"

#include "lang/Parser.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

using namespace pseq;

namespace {

std::string slurp(const char *Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s\n", Path);
    std::exit(1);
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

const char *mark(bool B) { return B ? "yes" : "no "; }

} // namespace

int main(int Argc, char **Argv) {
  std::optional<ValidationMethod> Method;
  std::vector<const char *> Files;
  for (int I = 1; I < Argc; ++I) {
    const char *Value = nullptr;
    if (cli::flagValue(Argc, Argv, I, "--method", Value)) {
      if (Value)
        Method = parseValidationMethodMaybe(Value);
      if (!Method) {
        std::fprintf(stderr,
                     "error: unknown validation method '%s'\n"
                     "available methods: %s\n",
                     Value ? Value : "", validationMethodList());
        return 2;
      }
      continue;
    }
    Files.push_back(Argv[I]);
  }
  if (Files.size() == 2) {
    std::unique_ptr<Program> Src = parseOrDie(slurp(Files[0]));
    std::unique_ptr<Program> Tgt = parseOrDie(slurp(Files[1]));
    if (!sameLayout(*Src, *Tgt)) {
      std::fprintf(stderr, "error: programs declare different layouts\n");
      return 1;
    }
    if (Method) {
      ValidationResult V =
          validateTransform(*Src, *Tgt, SeqConfig(), *Method);
      std::printf("validator  (%s): %s — %llu states, %.2f ms%s\n",
                  validationMethodName(V.MethodUsed),
                  V.Ok ? "ACCEPTS" : "REJECTS", V.StatesExplored, V.ElapsedMs,
                  V.Bounded ? " (bounded)" : "");
      if (!V.Counterexample.empty())
        std::printf("  %s\n", V.Counterexample.c_str());
      return V.Ok ? 0 : 1;
    }
    RefinementResult Simple = checkSimpleRefinement(*Src, *Tgt);
    RefinementResult Advanced = checkAdvancedRefinement(*Src, *Tgt);
    SimulationResult Sim = checkSimulation(*Src, *Tgt);
    std::printf("simple     (Def 2.4): %s%s\n",
                Simple.Holds ? "HOLDS" : "FAILS",
                Simple.Bounded ? " (bounded)" : "");
    if (!Simple.Holds)
      std::printf("  %s\n", Simple.Counterexample.c_str());
    std::printf("advanced   (Def 3.3): %s%s\n",
                Advanced.Holds ? "HOLDS" : "FAILS",
                Advanced.Bounded ? " (bounded)" : "");
    if (!Advanced.Holds)
      std::printf("  %s\n", Advanced.Counterexample.c_str());
    std::printf("simulation (Fig. 6) : %s%s\n", Sim.Holds ? "HOLDS" : "FAILS",
                Sim.Complete ? "" : " (bounded)");
    if (!Sim.Holds)
      std::printf("  %s\n", Sim.Counterexample.c_str());

    // The per-thread validator entry point, with its work/time accounting.
    ValidationResult V = validateTransform(*Src, *Tgt);
    std::printf("validator  (%s): %s — %llu states, %.2f ms%s\n",
                validationMethodName(V.MethodUsed),
                V.Ok ? "ACCEPTS" : "REJECTS", V.StatesExplored, V.ElapsedMs,
                V.Bounded ? " (bounded)" : "");
    if (!V.Counterexample.empty())
      std::printf("  %s\n", V.Counterexample.c_str());
    return Advanced.Holds ? 0 : 1;
  }
  if (!Files.empty()) {
    std::fprintf(stderr,
                 "usage: %s [--method NAME] [source.pseq target.pseq]\n",
                 Argv[0]);
    return 2;
  }

  std::printf("%-36s %-22s %7s %9s %5s\n", "example", "paper", "simple",
              "advanced", "sim");
  std::printf("%.90s\n", std::string(90, '-').c_str());
  unsigned Mismatches = 0;
  for (const RefinementCase &RC : refinementCorpus()) {
    std::unique_ptr<Program> Src = parseOrDie(RC.Src);
    std::unique_ptr<Program> Tgt = parseOrDie(RC.Tgt);
    SeqConfig Cfg;
    Cfg.Domain = RC.Domain;
    Cfg.StepBudget = RC.StepBudget;
    RefinementResult Simple = checkSimpleRefinement(*Src, *Tgt, Cfg);
    RefinementResult Advanced = checkAdvancedRefinement(*Src, *Tgt, Cfg);
    SimulationResult Sim = checkSimulation(*Src, *Tgt, Cfg);
    bool Match = Simple.Holds == RC.SimpleHolds &&
                 Advanced.Holds == RC.AdvancedHolds &&
                 Sim.Holds == RC.AdvancedHolds;
    Mismatches += !Match;
    std::printf("%-36s %-22s %7s %9s %5s %s\n", RC.Name.c_str(),
                RC.PaperRef.c_str(), mark(Simple.Holds),
                mark(Advanced.Holds), mark(Sim.Holds),
                Match ? "" : "  <-- MISMATCH");
  }
  std::printf("\n%u mismatches against the paper's verdicts\n", Mismatches);
  return Mismatches == 0 ? 0 : 1;
}

//===- examples/optimizer_pipeline.cpp - The §4 optimizer on a corpus -----===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
// Runs the four-pass pipeline on a set of programs exercising every pass —
// including Example 1.3's LICM loop and a combined program where the
// passes enable each other — printing per-pass diffs and validation
// verdicts:
//
//   optimizer_pipeline [--method NAME] [file]
//
// --method selects the per-pass validation procedure (simple | advanced |
// simulation; default: the pipeline's, the Fig. 6 simulation); a typo
// lists the available methods and exits 2.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "lang/Printer.h"
#include "opt/Pipeline.h"
#include "support/CliArgs.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace pseq;

namespace {

ValidationMethod Method = PipelineOptions().Method;

void runOn(const std::string &Title, const std::string &Text,
           ValueDomain Domain, unsigned StepBudget) {
  std::unique_ptr<Program> P = parseOrDie(Text);
  std::printf("==== %s ====\n%s\n", Title.c_str(),
              printProgram(*P).c_str());
  PipelineOptions Opts;
  Opts.Method = Method;
  Opts.Cfg.Domain = std::move(Domain);
  Opts.Cfg.StepBudget = StepBudget;
  PipelineResult R = runPipeline(*P, Opts);
  for (const PassReport &Rep : R.Reports) {
    if (Rep.Rewrites == 0) {
      std::printf("-- %s: no rewrites\n", Rep.Name.c_str());
      continue;
    }
    std::printf("-- %s: %u rewrites, %s%s\n", Rep.Name.c_str(), Rep.Rewrites,
                Rep.Validated ? "validated in SEQ" : "REJECTED",
                Rep.ValidationBounded ? " (bounded)" : "");
    if (!Rep.Error.empty())
      std::printf("   %s\n", Rep.Error.c_str());
  }
  std::printf("\n=> optimized:\n%s\n", printProgram(*R.Prog).c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  const char *File = nullptr;
  for (int I = 1; I < Argc; ++I) {
    const char *Value = nullptr;
    if (cli::flagValue(Argc, Argv, I, "--method", Value)) {
      std::optional<ValidationMethod> M;
      if (Value)
        M = parseValidationMethodMaybe(Value);
      if (!M) {
        std::fprintf(stderr,
                     "error: unknown validation method '%s'\n"
                     "available methods: %s\n",
                     Value ? Value : "", validationMethodList());
        return 2;
      }
      Method = *M;
      continue;
    }
    File = Argv[I];
  }
  if (File) {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n", File);
      return 1;
    }
    std::stringstream Buf;
    Buf << In.rdbuf();
    runOn(File, Buf.str(), ValueDomain::ternary(), 18);
    return 0;
  }

  // Example 1.1/1.2: store-to-load forwarding across atomics.
  runOn("slf across atomics (Ex 1.2)",
        "na x; atomic y;\n"
        "thread { x@na := 1; s := y@acq; b := x@na; return b; }",
        ValueDomain::binary(), 48);

  // Appendix D shapes: LLF and DSE.
  runOn("llf + dse (App D)",
        "na x; atomic y;\n"
        "thread {\n"
        "  x@na := 1;\n"
        "  a := x@na;\n"
        "  b := x@na;\n"
        "  y@rel := 1;\n"
        "  x@na := 2;\n"
        "  x@na := 3;\n"
        "  return a + b;\n"
        "}",
        ValueDomain({0, 1, 2, 3}), 48);

  // Example 1.3: loop-invariant code motion.
  runOn("licm (Ex 1.3)",
        "na x;\n"
        "thread {\n"
        "  c := choose;\n"
        "  while (c != 0) { a := x@na; c := choose; }\n"
        "  return 0;\n"
        "}",
        ValueDomain::binary(), 18);

  // A program where SLF unlocks DSE: after forwarding, the first store's
  // value is never read again.
  runOn("pass synergy",
        "na x;\n"
        "thread {\n"
        "  x@na := 1;\n"
        "  a := x@na;\n"
        "  x@na := a;\n"
        "  b := x@na;\n"
        "  return a + b;\n"
        "}",
        ValueDomain({0, 1, 2}), 48);

  return 0;
}

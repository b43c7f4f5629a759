//===- tests/lang_test.cpp - Language substrate unit tests ----------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "lang/Determinism.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "lang/ProgState.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace pseq;

//===----------------------------------------------------------------------===
// Value
//===----------------------------------------------------------------------===

TEST(ValueTest, RefinementOrder) {
  // v ⊑ v' iff v = v' or v' = undef (§2 "Values").
  EXPECT_TRUE(Value::of(3).refines(Value::of(3)));
  EXPECT_FALSE(Value::of(3).refines(Value::of(4)));
  EXPECT_TRUE(Value::of(3).refines(Value::undef()));
  EXPECT_TRUE(Value::undef().refines(Value::undef()));
  EXPECT_FALSE(Value::undef().refines(Value::of(3)));
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value::of(1), Value::of(1));
  EXPECT_NE(Value::of(1), Value::of(2));
  EXPECT_NE(Value::of(0), Value::undef());
  EXPECT_EQ(Value::undef(), Value::undef());
}

//===----------------------------------------------------------------------===
// Expression evaluation
//===----------------------------------------------------------------------===

namespace {

EvalResult evalIn(Program &, const Expr *E) {
  std::vector<Value> Regs(4, Value::of(0));
  return E->eval(Regs);
}

} // namespace

TEST(ExprTest, ConstantArithmetic) {
  Program P;
  const Expr *E =
      P.exprBin(BinOp::Add, P.exprConst(2), P.exprConst(3));
  EvalResult R = evalIn(P, E);
  ASSERT_FALSE(R.IsUB);
  EXPECT_EQ(R.V, Value::of(5));
}

TEST(ExprTest, DivisionByZeroIsUB) {
  Program P;
  const Expr *E =
      P.exprBin(BinOp::Div, P.exprConst(1), P.exprConst(0));
  EXPECT_TRUE(evalIn(P, E).IsUB);
}

TEST(ExprTest, DivisionByUndefIsUB) {
  Program P;
  const Expr *E = P.exprBin(BinOp::Div, P.exprConst(1),
                            P.exprConst(Value::undef()));
  EXPECT_TRUE(evalIn(P, E).IsUB);
}

TEST(ExprTest, UndefPropagates) {
  Program P;
  const Expr *E = P.exprBin(BinOp::Add, P.exprConst(Value::undef()),
                            P.exprConst(1));
  EvalResult R = evalIn(P, E);
  ASSERT_FALSE(R.IsUB);
  EXPECT_TRUE(R.V.isUndef());
}

TEST(ExprTest, ComparisonOperators) {
  Program P;
  auto check = [&](BinOp Op, int64_t L, int64_t R, int64_t Want) {
    const Expr *E = P.exprBin(Op, P.exprConst(L), P.exprConst(R));
    EvalResult Res = evalIn(P, E);
    ASSERT_FALSE(Res.IsUB);
    EXPECT_EQ(Res.V, Value::of(Want));
  };
  check(BinOp::Eq, 2, 2, 1);
  check(BinOp::Ne, 2, 2, 0);
  check(BinOp::Lt, 1, 2, 1);
  check(BinOp::Le, 2, 2, 1);
  check(BinOp::Gt, 1, 2, 0);
  check(BinOp::Ge, 2, 3, 0);
  check(BinOp::And, 1, 0, 0);
  check(BinOp::Or, 1, 0, 1);
  check(BinOp::Mod, 7, 3, 1);
}

//===----------------------------------------------------------------------===
// Parser
//===----------------------------------------------------------------------===

TEST(ParserTest, ParsesDeclarationsAndModes) {
  auto P = prog("na x; atomic z;\n"
                "thread { x@na := 1; a := z@acq; z@rel := a; return a; }");
  EXPECT_EQ(P->numLocs(), 2u);
  EXPECT_FALSE(P->isAtomicLoc(*P->lookupLoc("x")));
  EXPECT_TRUE(P->isAtomicLoc(*P->lookupLoc("z")));
  EXPECT_EQ(P->numThreads(), 1u);
}

TEST(ParserTest, RejectsModeMismatch) {
  ParseResult R = parseProgram("na x; thread { x@rlx := 1; return 0; }");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("atomicity"), std::string::npos);
}

TEST(ParserTest, RejectsLocationInExpression) {
  ParseResult R = parseProgram("na x; thread { a := x + 1; return a; }");
  EXPECT_FALSE(R.ok());
}

TEST(ParserTest, ReportsLineNumbers) {
  ParseResult R = parseProgram("na x;\nthread {\n  ??? }\n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Line, 3u);
  EXPECT_EQ(R.Column, 3u);
  // The error string itself carries the position.
  EXPECT_NE(R.Error.find("line 3"), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("column 3"), std::string::npos) << R.Error;
}

TEST(ParserTest, MalformedCorpusNeverCrashesAndAlwaysExplains) {
  // A corpus of hostile inputs: every one must be rejected with a
  // non-empty, position-carrying error — never a crash, hang, or a
  // silently "ok" parse.
  const char *Corpus[] = {
      "",
      ";",
      "}",
      "{",
      "thread",
      "thread {",
      "thread }",
      "thread { return }",
      "thread { return 0; } garbage",
      "na; thread { return 0; }",
      "na x thread { return 0; }",
      "atomic ; thread { return 0; }",
      "na x; thread { x@ := 1; return 0; }",
      "na x; thread { x@na = 1; return 0; }",
      "na x; thread { @na := 1; return 0; }",
      "thread { a := ; return a; }",
      "thread { a := (1; return a; }",
      "thread { a := 1 +; return a; }",
      "thread { a := cas(, 0, 1) @ acq rel; }",
      "thread { a := fadd(x, 1) @ rlx rlx; }", // x undeclared
      "thread { if (a { skip; } return 0; }",
      "thread { while () { skip; } return 0; }",
      "thread { fence; return 0; }",
      "thread { print(; return 0; }",
      "thread { 123; }",
      "thread { a := 99999999999999999999999999999; return a; }",
      "\xff\xfe\xfd",
      "thread { a := \xc3\xa9; return a; }",
      "na x; // comment never ends",
  };
  for (const char *Text : Corpus) {
    ParseResult R = parseProgram(Text);
    ASSERT_FALSE(R.ok()) << "accepted: " << Text;
    EXPECT_FALSE(R.Error.empty()) << "empty error for: " << Text;
    EXPECT_NE(R.Error.find("line "), std::string::npos)
        << "no position in: " << R.Error;
    EXPECT_NE(R.Error.find("column "), std::string::npos)
        << "no position in: " << R.Error;
  }
}

TEST(ParserTest, DeepNestingIsAnErrorNotAStackOverflow) {
  // 100k unary minuses / parens / nested ifs: the depth limit must kick in.
  std::string Minuses = "thread { a := " + std::string(100000, '-') +
                        "1; return a; }";
  ParseResult R1 = parseProgram(Minuses);
  ASSERT_FALSE(R1.ok());
  EXPECT_NE(R1.Error.find("depth"), std::string::npos) << R1.Error;

  std::string Parens = "thread { a := " + std::string(100000, '(') + "1" +
                       std::string(100000, ')') + "; return a; }";
  EXPECT_FALSE(parseProgram(Parens).ok());

  std::string Ifs = "thread { ";
  for (int I = 0; I != 100000; ++I)
    Ifs += "if (a == 0) { ";
  ParseResult R3 = parseProgram(Ifs);
  ASSERT_FALSE(R3.ok());
  EXPECT_NE(R3.Error.find("depth"), std::string::npos) << R3.Error;

  // A depth well under the limit still parses.
  std::string Ok = "thread { a := " + std::string(50, '(') + "1" +
                   std::string(50, ')') + "; return a; }";
  EXPECT_TRUE(parseProgram(Ok).ok());
}

TEST(ParserTest, ParsesControlFlowAndRmw) {
  auto P = prog("atomic z;\n"
                "thread {\n"
                "  r := cas(z, 0, 1) @ acq rel;\n"
                "  s := fadd(z, 2) @ rlx rlx;\n"
                "  fence @ sc;\n"
                "  if (r == 0) { print(s); } else { skip; }\n"
                "  while (s < 3) { s := s + 1; }\n"
                "  c := choose;\n"
                "  d := freeze(c);\n"
                "  return d;\n"
                "}");
  EXPECT_EQ(P->numThreads(), 1u);
  // The SC fence is lowered to rel;acq parts in the bytecode.
  unsigned Fences = 0;
  for (const Instr &I : P->thread(0).Code)
    if (I.Op == Instr::Opcode::Fence)
      ++Fences;
  EXPECT_EQ(Fences, 2u);
}

TEST(ParserTest, MultipleThreads) {
  auto P = prog("atomic z;\n"
                "thread { z@rlx := 1; return 0; }\n"
                "thread { a := z@rlx; return a; }");
  EXPECT_EQ(P->numThreads(), 2u);
}

TEST(ParserTest, CommentsAreIgnored) {
  auto P = prog("na x; // the data\n"
                "thread { x@na := 1; // store\n return 0; }");
  EXPECT_EQ(P->numThreads(), 1u);
}

TEST(ParserTest, RoundTripThroughPrinter) {
  const char *Text = "na x, y;\natomic z;\n"
                     "thread {\n"
                     "  x@na := 1;\n"
                     "  a := z@acq;\n"
                     "  if (a == 1) { b := x@na; } else { y@na := a + 2; }\n"
                     "  while (b < 2) { b := b + 1; }\n"
                     "  return b;\n"
                     "}";
  auto P1 = prog(Text);
  std::string Printed = printProgram(*P1);
  auto P2 = prog(Printed);
  ASSERT_TRUE(sameLayout(*P1, *P2));
  EXPECT_TRUE(stmtStructurallyEquals(P1->thread(0).Body, P2->thread(0).Body))
      << "printed form:\n"
      << Printed;
}

//===----------------------------------------------------------------------===
// Bytecode + ProgState LTS
//===----------------------------------------------------------------------===

TEST(ProgStateTest, StraightLineExecution) {
  auto P = prog("na x; thread { a := 2; x@na := a + 1; return a; }");
  ProgState S = ProgState::initial(*P, 0);

  // a := 2 is silent.
  ASSERT_EQ(S.pending(*P, 0).K, ProgState::Pending::Kind::Silent);
  S.applySilent(*P, 0);

  // The store's value is evaluated at the write.
  ProgState::Pending W = S.pending(*P, 0);
  ASSERT_EQ(W.K, ProgState::Pending::Kind::Write);
  EXPECT_EQ(W.WM, WriteMode::NA);
  EXPECT_EQ(W.WVal, Value::of(3));
  S.applyWrite(*P, 0);

  // return a.
  ASSERT_EQ(S.pending(*P, 0).K, ProgState::Pending::Kind::Silent);
  S.applySilent(*P, 0);
  ASSERT_TRUE(S.isDone());
  EXPECT_EQ(S.retVal(), Value::of(2));
}

TEST(ProgStateTest, BranchOnUndefIsUB) {
  auto P = prog("thread { a := undef; if (a == 0) { skip; } return 0; }");
  ProgState S = ProgState::initial(*P, 0);
  S.applySilent(*P, 0); // a := undef
  // The branch condition is undef == 0 → undef → UB.
  ASSERT_EQ(S.pending(*P, 0).K, ProgState::Pending::Kind::Fail);
  S.applySilent(*P, 0);
  EXPECT_TRUE(S.isError());
}

TEST(ProgStateTest, FreezeOfDefinedIsSilent) {
  auto P = prog("thread { a := 7; b := freeze(a); return b; }");
  ProgState S = ProgState::initial(*P, 0);
  S.applySilent(*P, 0);
  ASSERT_EQ(S.pending(*P, 0).K, ProgState::Pending::Kind::Silent);
  S.applySilent(*P, 0);
  S.applySilent(*P, 0);
  EXPECT_EQ(S.retVal(), Value::of(7));
}

TEST(ProgStateTest, FreezeOfUndefIsChoose) {
  auto P = prog("thread { b := freeze(undef); return b; }");
  ProgState S = ProgState::initial(*P, 0);
  ASSERT_EQ(S.pending(*P, 0).K, ProgState::Pending::Kind::Choose);
  S.applyChoose(*P, 0, Value::of(5));
  S.applySilent(*P, 0);
  EXPECT_EQ(S.retVal(), Value::of(5));
}

TEST(ProgStateTest, WhileLoopExecutes) {
  auto P = prog("thread { i := 0; while (i < 3) { i := i + 1; } return i; }");
  ProgState S = ProgState::initial(*P, 0);
  unsigned Guard = 0;
  while (!S.isDone()) {
    ASSERT_LT(++Guard, 100u);
    ASSERT_EQ(S.pending(*P, 0).K, ProgState::Pending::Kind::Silent);
    S.applySilent(*P, 0);
  }
  EXPECT_EQ(S.retVal(), Value::of(3));
}

TEST(ProgStateTest, CasSuccessAndFailure) {
  auto P = prog("atomic z; thread { r := cas(z, 1, 9) @ rlx rlx; return r; }");
  {
    ProgState S = ProgState::initial(*P, 0);
    ASSERT_EQ(S.pending(*P, 0).K, ProgState::Pending::Kind::Rmw);
    bool DoesWrite = false;
    Value NewVal;
    S.applyRmw(*P, 0, Value::of(1), DoesWrite, NewVal);
    EXPECT_TRUE(DoesWrite);
    EXPECT_EQ(NewVal, Value::of(9));
    S.applySilent(*P, 0);
    EXPECT_EQ(S.retVal(), Value::of(1));
  }
  {
    ProgState S = ProgState::initial(*P, 0);
    bool DoesWrite = true;
    Value NewVal;
    S.applyRmw(*P, 0, Value::of(0), DoesWrite, NewVal);
    EXPECT_FALSE(DoesWrite);
  }
  {
    // CAS comparison against undef is UB.
    ProgState S = ProgState::initial(*P, 0);
    bool DoesWrite = false;
    Value NewVal;
    S.applyRmw(*P, 0, Value::undef(), DoesWrite, NewVal);
    EXPECT_TRUE(S.isError());
  }
}

TEST(ProgStateTest, FaddAccumulates) {
  auto P = prog("atomic z; thread { r := fadd(z, 2) @ rlx rlx; return r; }");
  ProgState S = ProgState::initial(*P, 0);
  bool DoesWrite = false;
  Value NewVal;
  S.applyRmw(*P, 0, Value::of(3), DoesWrite, NewVal);
  EXPECT_TRUE(DoesWrite);
  EXPECT_EQ(NewVal, Value::of(5));
  S.applySilent(*P, 0);
  EXPECT_EQ(S.retVal(), Value::of(3)) << "fadd returns the old value";
}

TEST(ProgStateTest, ImplicitReturnZero) {
  auto P = prog("na x; thread { x@na := 1; }");
  ProgState S = ProgState::initial(*P, 0);
  S.applyWrite(*P, 0);
  S.applySilent(*P, 0);
  ASSERT_TRUE(S.isDone());
  EXPECT_EQ(S.retVal(), Value::of(0));
}

TEST(ProgStateTest, AccessSummary) {
  auto P = prog("na x, y; atomic z;\n"
                "thread { x@na := 1; a := y@na; b := z@acq; return b; }");
  AccessSummary Sum = P->accessSummary(0);
  EXPECT_TRUE(Sum.NaAccessed.contains(*P->lookupLoc("x")));
  EXPECT_TRUE(Sum.NaAccessed.contains(*P->lookupLoc("y")));
  EXPECT_TRUE(Sum.NaWritten.contains(*P->lookupLoc("x")));
  EXPECT_FALSE(Sum.NaWritten.contains(*P->lookupLoc("y")));
  EXPECT_TRUE(Sum.AtomicAccessed.contains(*P->lookupLoc("z")));
  EXPECT_TRUE(Sum.HasAcquire);
  EXPECT_FALSE(Sum.HasRelease);
}

//===----------------------------------------------------------------------===
// Determinism (Def 6.1)
//===----------------------------------------------------------------------===

TEST(DeterminismTest, StraightLineProgram) {
  auto P = prog("na x; thread { x@na := 1; a := x@na; return a; }");
  DeterminismReport R = checkDeterministic(*P, 0, ValueDomain::binary());
  EXPECT_TRUE(R.Deterministic);
  EXPECT_FALSE(R.Exhausted);
  EXPECT_GT(R.StatesVisited, 0u);
}

TEST(DeterminismTest, BranchingOnReadsAndChoices) {
  auto P = prog("atomic z;\n"
                "thread { a := z@rlx; c := choose; if (a == c) { z@rlx := 1; }"
                " return a; }");
  DeterminismReport R = checkDeterministic(*P, 0, ValueDomain::ternary());
  EXPECT_TRUE(R.Deterministic);
}

//===----------------------------------------------------------------------===
// Additional parser negatives and utility coverage.
//===----------------------------------------------------------------------===

TEST(ParserTest, RejectsNaRmw) {
  EXPECT_FALSE(
      parseProgram("na x; thread { r := cas(x, 0, 1) @ rlx rlx; }").ok());
  EXPECT_FALSE(
      parseProgram("atomic z; thread { r := cas(z, 0, 1) @ na rlx; }").ok());
}

TEST(ParserTest, RejectsEmptyProgram) {
  EXPECT_FALSE(parseProgram("na x;").ok());
  EXPECT_FALSE(parseProgram("").ok());
}

TEST(ParserTest, RejectsMissingSemicolons) {
  EXPECT_FALSE(parseProgram("thread { a := 1 return a; }").ok());
}

TEST(ParserTest, RejectsStoreWithoutMode) {
  EXPECT_FALSE(parseProgram("na x; thread { x := 1; }").ok());
}

TEST(ParserTest, RejectsLoadWithoutMode) {
  EXPECT_FALSE(parseProgram("na x; thread { a := x; return a; }").ok());
}

TEST(ParserTest, RejectsUnknownFenceMode) {
  EXPECT_FALSE(parseProgram("thread { fence @ weird; }").ok());
}

TEST(ParserTest, RejectsBadTokens) {
  EXPECT_FALSE(parseProgram("thread { a := 1 ? 2 : 3; }").ok());
}

TEST(ParserTest, PrecedenceParsesAsExpected) {
  auto P = prog("thread { a := 1 + 2 * 3; b := (1 + 2) * 3; "
                "c := 1 < 2 && 3 > 2 || 0 == 1; return a; }");
  ProgState S = ProgState::initial(*P, 0);
  S.applySilent(*P, 0);
  S.applySilent(*P, 0);
  S.applySilent(*P, 0);
  S.applySilent(*P, 0);
  ASSERT_TRUE(S.isDone());
  EXPECT_EQ(S.retVal(), Value::of(7));
  EXPECT_EQ(S.regs()[1], Value::of(9));
  EXPECT_EQ(S.regs()[2], Value::of(1));
}

TEST(PrinterTest, PrintCodeListsEveryInstruction) {
  auto P = prog("na x; atomic z;\n"
                "thread { x@na := 1; a := z@acq; if (a == 1) { abort; } "
                "while (a < 2) { a := a + 1; } print(a); return a; }");
  std::string Code = printCode(*P, 0);
  for (const char *Needle :
       {"x@na := 1", "a := z@acq", "br ", "jmp ", "abort", "print", "return"})
    EXPECT_NE(Code.find(Needle), std::string::npos) << Code;
}

TEST(CloneProgramTest, ClonesLayoutThreadsAndBehavior) {
  auto P = prog("na x; atomic z;\n"
                "thread { x@na := 1; a := x@na; return a; }\n"
                "thread { z@rlx := 1; return 0; }");
  std::unique_ptr<Program> Q = cloneProgram(*P);
  ASSERT_TRUE(sameLayout(*P, *Q));
  ASSERT_EQ(P->numThreads(), Q->numThreads());
  for (unsigned T = 0; T != P->numThreads(); ++T)
    EXPECT_TRUE(
        stmtStructurallyEquals(P->thread(T).Body, Q->thread(T).Body));
  EXPECT_EQ(printProgram(*P), printProgram(*Q));
}

// A program's Expr and Stmt nodes live in chunked arenas: growing them
// past many chunks must never move a node. Pointers taken before the
// growth still see the same trees and print the same text.
TEST(ProgramArenaTest, NodesNeverMove) {
  auto P = prog("na x; atomic z;\n"
                "thread { a := 1; while (a < 3) { x@na := a + 1; "
                "a := x@na; } if (a == 3) { z@rel := a * 2; } "
                "else { abort; } return a; }");
  std::unique_ptr<Program> Ref = cloneProgram(*P);
  const Program::ThreadCode &T = P->thread(0);
  const Stmt *Body = T.Body;
  const Expr *Sum = P->exprBin(BinOp::Add, P->exprReg(0), P->exprConst(7));
  const Expr *RefSum =
      Ref->exprBin(BinOp::Add, Ref->exprReg(0), Ref->exprConst(7));
  const std::string BodyText = printStmt(Body, *P, T.Regs);
  const std::string SumText = printExpr(Sum, T.Regs);

  std::vector<const Stmt *> Clones;
  std::vector<const Expr *> Exprs;
  for (int I = 0; I != 500; ++I) {
    Clones.push_back(P->cloneStmt(Body));
    Exprs.push_back(P->exprBin(BinOp::Mul, Sum, P->exprConst(I)));
  }

  EXPECT_TRUE(stmtStructurallyEquals(Body, Ref->thread(0).Body));
  EXPECT_EQ(printStmt(Body, *P, T.Regs), BodyText);
  EXPECT_TRUE(Sum->structurallyEquals(*RefSum));
  EXPECT_EQ(printExpr(Sum, T.Regs), SumText);
  for (int I = 0; I != 500; ++I) {
    EXPECT_TRUE(stmtStructurallyEquals(Clones[I], Body)) << I;
    EXPECT_EQ(printExpr(Exprs[I], T.Regs),
              "(" + SumText + ") * " + std::to_string(I))
        << I;
  }
  EXPECT_EQ(printProgram(*P), printProgram(*Ref));
}

// Lexer, parser, printer round-trips, and semantic verification.
#include <gtest/gtest.h>

#include <cstdint>

#include "analysis/symbols.h"
#include "ir/printer.h"
#include "parser/lexer.h"
#include "parser/parser.h"

namespace formad {
namespace {

using namespace formad::ir;
using parser::parseExpr;
using parser::parseKernel;
using parser::parseProgram;
using parser::tokenize;
using parser::TokKind;

TEST(Lexer, TokensAndLocations) {
  auto toks = tokenize("a1 += 2.5e-1; // comment\nfor");
  ASSERT_GE(toks.size(), 5u);
  EXPECT_EQ(toks[0].kind, TokKind::Ident);
  EXPECT_EQ(toks[0].text, "a1");
  EXPECT_EQ(toks[1].kind, TokKind::PlusAssign);
  EXPECT_EQ(toks[2].kind, TokKind::RealLit);
  EXPECT_DOUBLE_EQ(toks[2].realValue, 0.25);
  EXPECT_EQ(toks[3].kind, TokKind::Semicolon);
  EXPECT_EQ(toks[4].kind, TokKind::Ident);  // 'for' on line 2
  EXPECT_EQ(toks[4].loc.line, 2);
}

TEST(Lexer, AllOperators) {
  auto toks = tokenize("== != <= >= < > && || ! % * / + - = += -=");
  std::vector<TokKind> kinds;
  for (const auto& t : toks) kinds.push_back(t.kind);
  std::vector<TokKind> expect = {
      TokKind::EqEq, TokKind::Ne, TokKind::Le, TokKind::Ge,
      TokKind::Lt, TokKind::Gt, TokKind::AndAnd, TokKind::OrOr,
      TokKind::Bang, TokKind::Percent, TokKind::Star, TokKind::Slash,
      TokKind::Plus, TokKind::Minus, TokKind::Assign, TokKind::PlusAssign,
      TokKind::MinusAssign, TokKind::Eof};
  EXPECT_EQ(kinds, expect);
}

TEST(Lexer, RejectsStrayCharacters) {
  EXPECT_THROW((void)tokenize("a $ b"), Error);
  EXPECT_THROW((void)tokenize("a & b"), Error);
}

// Literals beyond the target type are located diagnostics, not aborts.
TEST(Lexer, LiteralRangeIsChecked) {
  auto toks = tokenize("9223372036854775807 1e308");
  ASSERT_GE(toks.size(), 2u);
  EXPECT_EQ(toks[0].kind, TokKind::IntLit);
  EXPECT_EQ(toks[0].intValue, INT64_MAX);
  EXPECT_EQ(toks[1].kind, TokKind::RealLit);
  EXPECT_DOUBLE_EQ(toks[1].realValue, 1e308);
  for (const char* src :
       {"x = 9223372036854775808;", "w[123456789012345678901]",
        "y = w[i] * 1e999;"}) {
    try {
      (void)tokenize(std::string("\n  ") + src);
      ADD_FAILURE() << "accepted " << src;
    } catch (const Error& e) {
      EXPECT_EQ(e.where().line, 2) << src;
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Parser, ExpressionPrecedence) {
  auto e = parseExpr("1 + 2 * 3 - 4 / 2");
  EXPECT_EQ(printExpr(*e), "1 + 2 * 3 - 4 / 2");
  auto f = parseExpr("(1 + 2) * 3");
  EXPECT_EQ(printExpr(*f), "(1 + 2) * 3");
}

TEST(Parser, IntrinsicCalls) {
  auto e = parseExpr("sin(x) * pow(y, 2.0) + min(a, b)");
  EXPECT_EQ(e->kind(), ExprKind::Binary);
  EXPECT_EQ(printExpr(*e), "sin(x) * pow(y, 2.0) + min(a, b)");
}

TEST(Parser, IntrinsicArityChecked) {
  EXPECT_THROW((void)parseExpr("sin(x, y)"), Error);
  EXPECT_THROW((void)parseExpr("pow(x)"), Error);
}

TEST(Parser, IncrementSugar) {
  auto k = parseKernel(
      "kernel f(a: real[] inout, i: int in) { a[i] += 2.0; a[i] -= 1.0; }");
  ASSERT_EQ(k->body.size(), 2u);
  const auto& plus = k->body[0]->as<Assign>();
  EXPECT_EQ(printExpr(*plus.rhs), "a[i] + 2.0");
  const auto& minus = k->body[1]->as<Assign>();
  EXPECT_EQ(printExpr(*minus.rhs), "a[i] + -1.0");
}

TEST(Parser, ParallelLoopClauses) {
  auto k = parseKernel(R"(
kernel f(n: int in, a: real[] inout, s: real in) {
  parallel for i = 0 : n - 1 : 2 schedule(dynamic) shared(a) reduction(+: s) {
    a[i] = a[i] * s;
  }
}
)");
  const auto& loop = k->body[0]->as<For>();
  EXPECT_TRUE(loop.parallel);
  EXPECT_EQ(loop.sched, Schedule::Dynamic);
  EXPECT_EQ(loop.shared, std::vector<std::string>{"a"});
  ASSERT_EQ(loop.reductions.size(), 1u);
  EXPECT_EQ(loop.reductions[0].var, "s");
  EXPECT_EQ(printExpr(*loop.step), "2");
}

TEST(Parser, ClausesRejectedOnSerialLoops) {
  EXPECT_THROW((void)parseKernel(
                   "kernel f(n: int in) { for i = 0 : n shared(n) { } }"),
               Error);
}

TEST(Parser, ProgramWithMultipleKernels) {
  auto p = parseProgram(R"(
kernel f(x: real in) { }
kernel g(y: real out) { y = 1.0; }
)");
  EXPECT_NE(p.find("f"), nullptr);
  EXPECT_NE(p.find("g"), nullptr);
  EXPECT_EQ(p.find("h"), nullptr);
}

TEST(Parser, PrinterRoundTrip) {
  const char* src = R"(
kernel round(n: int in, c: int[] in, x: real[] in, y: real[,] inout) {
  var t: real = 0.5;
  for k = 1 : n {
    parallel for i = 0 : n - 1 {
      if (c[i] > 0 && c[i] != n) {
        y[c[i], k] = x[c[i] + 7] * t;
      } else {
        y[0, k] = -x[0];
      }
    }
  }
}
)";
  auto k1 = parseKernel(src);
  std::string printed = printKernel(*k1);
  auto k2 = parseKernel(printed);
  EXPECT_EQ(printed, printKernel(*k2));
}

TEST(Parser, ErrorsCarryLocations) {
  try {
    (void)parseKernel("kernel f(x: real in) {\n  y = 1.0\n}");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_GT(e.where().line, 1);
  }
}

// ---- semantic verification ----

TEST(Sema, UndeclaredVariable) {
  auto k = parseKernel("kernel f(x: real inout) { x = q; }");
  EXPECT_THROW((void)analysis::verifyKernel(*k), Error);
}

TEST(Sema, RankMismatch) {
  auto k = parseKernel("kernel f(a: real[,] inout, i: int in) { a[i] = 1.0; }");
  EXPECT_THROW((void)analysis::verifyKernel(*k), Error);
}

TEST(Sema, NonIntIndex) {
  auto k =
      parseKernel("kernel f(a: real[] inout, r: real in) { a[r] = 1.0; }");
  EXPECT_THROW((void)analysis::verifyKernel(*k), Error);
}

TEST(Sema, AssignToLoopCounter) {
  auto k = parseKernel(
      "kernel f(n: int in) { for i = 0 : n { i = 0; } }");
  EXPECT_THROW((void)analysis::verifyKernel(*k), Error);
}

TEST(Sema, AssignToInScalarParam) {
  auto k = parseKernel("kernel f(x: real in) { x = 1.0; }");
  EXPECT_THROW((void)analysis::verifyKernel(*k), Error);
}

TEST(Sema, RealToIntAssignmentRejected) {
  auto k = parseKernel("kernel f(i: int out, x: real in) { i = x; }");
  EXPECT_THROW((void)analysis::verifyKernel(*k), Error);
}

TEST(Sema, IntWidensToReal) {
  auto k = parseKernel("kernel f(x: real out, i: int in) { x = i; }");
  EXPECT_NO_THROW((void)analysis::verifyKernel(*k));
}

TEST(Sema, BoolConditionRequired) {
  auto k = parseKernel("kernel f(i: int in) { if (i + 1) { } }");
  EXPECT_THROW((void)analysis::verifyKernel(*k), Error);
}

TEST(Sema, DuplicateLocalRejected) {
  auto k = parseKernel(
      "kernel f(x: real in) { var t: real = x; var t: int = 1; }");
  EXPECT_THROW((void)analysis::verifyKernel(*k), Error);
}

TEST(Sema, LoopCounterReuseAllowed) {
  auto k = parseKernel(
      "kernel f(n: int in) { for i = 0 : n { } for i = 0 : n { } }");
  EXPECT_NO_THROW((void)analysis::verifyKernel(*k));
}

}  // namespace
}  // namespace formad

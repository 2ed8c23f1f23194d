//===- tests/parser_test.cpp ----------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "ast/AstPrinter.h"
#include "parser/Parser.h"

#include <gtest/gtest.h>

using namespace fearless;

namespace {

ExprPtr parseExpr(std::string_view Source, Interner &Names) {
  DiagnosticEngine Diags;
  ExprPtr E = parseExprString(Source, Names, Diags);
  EXPECT_TRUE(E != nullptr) << Diags.renderAll();
  return E;
}

std::string reprint(std::string_view Source) {
  Interner Names;
  ExprPtr E = parseExpr(Source, Names);
  if (!E)
    return "<parse error>";
  return printExpr(*E, Names);
}

TEST(Parser, Precedence) {
  EXPECT_EQ(reprint("1 + 2 * 3"), "(1 + (2 * 3))");
  EXPECT_EQ(reprint("1 * 2 + 3"), "((1 * 2) + 3)");
  EXPECT_EQ(reprint("1 + 2 < 3 + 4"), "((1 + 2) < (3 + 4))");
  EXPECT_EQ(reprint("a && b || c"), "((a && b) || c)");
  EXPECT_EQ(reprint("!a && b"), "(!a && b)");
  EXPECT_EQ(reprint("-1 + 2"), "(-1 + 2)");
}

TEST(Parser, FieldChainsAndAssignment) {
  EXPECT_EQ(reprint("tail.prev.next = hd"), "tail.prev.next = hd");
  EXPECT_EQ(reprint("x = y.f"), "x = y.f");
}

TEST(Parser, SomeAndNone) {
  EXPECT_EQ(reprint("some (hd)"), "some (hd)");
  EXPECT_EQ(reprint("some x.payload"), "some (x.payload)");
  EXPECT_EQ(reprint("l.hd = none"), "l.hd = none");
}

TEST(Parser, BareLetBindsRestOfBlock) {
  Interner Names;
  ExprPtr E = parseExpr("{ let x = 1; let y = 2; x }", Names);
  ASSERT_TRUE(E);
  // Desugars to let x = 1 in (let y = 2 in x).
  ASSERT_EQ(E->kind(), ExprKind::Let);
  const auto &Outer = cast<LetExpr>(*E);
  EXPECT_EQ(Outer.Body->kind(), ExprKind::Let);
}

TEST(Parser, LetWithExplicitScope) {
  Interner Names;
  ExprPtr E = parseExpr("{ let x = 1 in { x + 1 }; 5 }", Names);
  ASSERT_TRUE(E);
  ASSERT_EQ(E->kind(), ExprKind::Seq);
}

TEST(Parser, TrailingSemicolonYieldsUnit) {
  Interner Names;
  ExprPtr E = parseExpr("{ f(); }", Names);
  ASSERT_TRUE(E);
  const auto &Seq = cast<SeqExpr>(*E);
  EXPECT_EQ(Seq.Elems.back()->kind(), ExprKind::UnitLit);
}

TEST(Parser, TypedLetAscription) {
  EXPECT_EQ(reprint("{ let x : sll_node? = none; x }"),
            "let x : sll_node? = none in x");
  EXPECT_EQ(reprint("{ let n : int = 4; n }"), "let n : int = 4 in n");
}

TEST(Parser, LetSome) {
  EXPECT_EQ(reprint("let some(n) = l.hd in { n } else { n2 }"),
            "let some(n) = l.hd in n else n2");
}

TEST(Parser, IfDisconnectedRequiresVariables) {
  Interner Names;
  DiagnosticEngine Diags;
  ExprPtr E =
      parseExprString("if disconnected(a.b, c) { 1 } else { 2 }", Names,
                      Diags);
  EXPECT_EQ(E, nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Parser, IfElseChain) {
  EXPECT_EQ(reprint("if (a) { 1 } else if (b) { 2 } else { 3 }"),
            "if (a) 1 else if (b) 2 else 3");
}

TEST(Parser, RecvWithTypeArgument) {
  EXPECT_EQ(reprint("recv<sll_node?>()"), "recv<sll_node?>()");
  EXPECT_EQ(reprint("recv<int>()"), "recv<int>()");
}

TEST(Parser, NewForms) {
  EXPECT_EQ(reprint("new sll()"), "new sll()");
  EXPECT_EQ(reprint("new sll_node(p, l.hd)"), "new sll_node(p, l.hd)");
}

TEST(Parser, ProgramWithAnnotations) {
  DiagnosticEngine Diags;
  auto P = parseProgram(R"(
struct s { iso f : s?; }
def g(a, b : s) : s? consumes b pinned a
    before: a ~ b after: a.f ~ result {
  none
}
)",
                        Diags);
  ASSERT_TRUE(P.has_value()) << Diags.renderAll();
  ASSERT_EQ(P->Functions.size(), 1u);
  const FnDecl &G = P->Functions[0];
  EXPECT_EQ(G.Params.size(), 2u);
  EXPECT_EQ(G.Consumes.size(), 1u);
  EXPECT_EQ(G.Pinned.size(), 1u);
  EXPECT_EQ(G.Befores.size(), 1u);
  ASSERT_EQ(G.Afters.size(), 1u);
  EXPECT_TRUE(G.Afters[0].Rhs.IsResult);
  std::string Printed = printProgram(*P);
  EXPECT_NE(Printed.find("before: a ~ b"), std::string::npos);
  EXPECT_NE(Printed.find("after: a.f ~ result"), std::string::npos);
}

TEST(Parser, ParamGroups) {
  DiagnosticEngine Diags;
  auto P = parseProgram("def f(x, y : int, z : bool) : int { x }", Diags);
  ASSERT_TRUE(P.has_value()) << Diags.renderAll();
  ASSERT_EQ(P->Functions[0].Params.size(), 3u);
  EXPECT_EQ(P->Functions[0].Params[0].ParamType, Type::intTy());
  EXPECT_EQ(P->Functions[0].Params[1].ParamType, Type::intTy());
  EXPECT_EQ(P->Functions[0].Params[2].ParamType, Type::boolTy());
}

TEST(Parser, StructFields) {
  DiagnosticEngine Diags;
  auto P = parseProgram(R"(
struct dll_node {
  iso payload : data;
  next : dll_node;
  prev : dll_node;
}
)",
                        Diags);
  ASSERT_TRUE(P.has_value()) << Diags.renderAll();
  ASSERT_EQ(P->Structs.size(), 1u);
  EXPECT_TRUE(P->Structs[0].Fields[0].Iso);
  EXPECT_FALSE(P->Structs[0].Fields[1].Iso);
}

TEST(Parser, ErrorsAreReported) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(parseProgram("struct {", Diags).has_value());
  EXPECT_TRUE(Diags.hasErrors());

  DiagnosticEngine Diags2;
  Interner Names;
  EXPECT_EQ(parseExprString("1 +", Names, Diags2), nullptr);
  EXPECT_TRUE(Diags2.hasErrors());

  DiagnosticEngine Diags3;
  EXPECT_EQ(parseExprString("(1 = 2) = 3", Names, Diags3), nullptr);
  EXPECT_TRUE(Diags3.hasErrors());
}

TEST(FunctionIndex, FindsEveryParsedFunction) {
  DiagnosticEngine Diags;
  auto P = parseProgram(R"(
def a() : int { b() }
def b() : int { c() }
def c() : int { 1 }
)",
                        Diags);
  ASSERT_TRUE(P.has_value()) << Diags.renderAll();
  ASSERT_EQ(P->Functions.size(), 3u);
  for (uint32_t I = 0; I < P->Functions.size(); ++I) {
    Symbol Name = P->Functions[I].Name;
    EXPECT_EQ(P->findFunction(Name), &P->Functions[I]);
    EXPECT_EQ(P->functionIndex(Name), I);
  }
}

TEST(FunctionIndex, DuplicateNameFindsFirstDeclaration) {
  // The resolver rejects the duplicate; the lookup it uses to do so must
  // still answer with the first declaration.
  DiagnosticEngine Diags;
  auto P = parseProgram(R"(
def f() : int { 1 }
def g() : int { 2 }
def f() : bool { true }
)",
                        Diags);
  ASSERT_TRUE(P.has_value()) << Diags.renderAll();
  ASSERT_EQ(P->Functions.size(), 3u);
  Symbol F = P->Names.intern("f");
  EXPECT_EQ(P->findFunction(F), &P->Functions[0]);
  EXPECT_EQ(P->functionIndex(F), 0u);
}

TEST(FunctionIndex, UnknownAndLaterSymbolsFindNothing) {
  DiagnosticEngine Diags;
  auto P = parseProgram("struct s { v : int; } def f(x : s) : int { x.v }",
                        Diags);
  ASSERT_TRUE(P.has_value()) << Diags.renderAll();
  // Interned while parsing, but not a function name.
  EXPECT_EQ(P->findFunction(P->Names.intern("s")), nullptr);
  EXPECT_EQ(P->findFunction(P->Names.intern("x")), nullptr);
  // Interned after parsing: beyond the index.
  Symbol Late = P->Names.intern("never_declared");
  EXPECT_EQ(P->findFunction(Late), nullptr);
  EXPECT_EQ(P->functionIndex(Late), Program::NoFunction);
  EXPECT_EQ(P->findFunction(Symbol{}), nullptr);
}

TEST(Parser, MissingSemicolonDiagnosed) {
  DiagnosticEngine Diags;
  Interner Names;
  EXPECT_EQ(parseExprString("{ a b }", Names, Diags), nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

} // namespace

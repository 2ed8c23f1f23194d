//===- tests/checker_test.cpp ---------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// End-to-end checker tests on the paper's flagship programs: the sll and
// dll suites must be accepted (and verified), Fig. 4's broken remove_tail
// must be rejected, and a battery of targeted ill-typed programs must
// each fail with the right kind of diagnostic.
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"
#include "TestUtil.h"
#include "parser/Parser.h"

#include <gtest/gtest.h>

using namespace fearless;
using namespace fearless::testutil;

namespace {

/// Compiles and expects failure; returns the diagnostic message.
std::string compileErr(std::string_view Source) {
  auto Result = buildArtifact(Source);
  EXPECT_FALSE(Result.hasValue()) << "expected a type error";
  if (Result)
    return "";
  return Result.error().Message;
}

TEST(Checker, SllSuiteChecks) {
  auto Built = mustBuild(programs::SllSuite);
  const Pipeline &P = Built->P;
  ASSERT_NE(P.Prog, nullptr);
  EXPECT_EQ(P.Checked.Functions.size(), P.Prog->Functions.size());
  EXPECT_GT(P.Verified.StepsChecked, 0u);
  EXPECT_GT(P.Verified.VirtualStepsChecked, 0u);
}

TEST(Checker, DllSuiteChecks) {
  auto Built = mustBuild(programs::DllSuite);
  const Pipeline &P = Built->P;
  ASSERT_NE(P.Prog, nullptr);
  EXPECT_EQ(P.Checked.Functions.size(), P.Prog->Functions.size());
}

TEST(Checker, RedBlackTreeChecks) {
  auto Built = mustBuild(programs::RedBlackTree);
  const Pipeline &P = Built->P;
  ASSERT_NE(P.Prog, nullptr);
}

TEST(Checker, MessagePassingChecks) {
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  ASSERT_NE(P.Prog, nullptr);
}

TEST(Checker, BitTrieChecks) {
  auto Built = mustBuild(programs::BitTrie);
  const Pipeline &P = Built->P;
  ASSERT_NE(P.Prog, nullptr);
}

TEST(Checker, ExtrasCheck) {
  auto Built = mustBuild(programs::Extras);
  const Pipeline &P = Built->P;
  ASSERT_NE(P.Prog, nullptr);
}

//===----------------------------------------------------------------------===//
// Liveness sets (the §5.1 oracle's input)
//===----------------------------------------------------------------------===//

TEST(Liveness, UseSetsStaySortedAndDistinct) {
  Symbol A{1}, B{2}, C{3}, D{4}, F{9};
  UseSet X;
  X.addVar(C);
  X.addVar(A);
  X.addVar(C);
  X.addField(C, F);
  UseSet Y;
  Y.addVar(D);
  Y.addVar(B);
  Y.addVar(A);
  Y.addField(A, F);
  Y.addField(C, F);
  X.merge(Y);
  EXPECT_EQ(X.Vars, (std::vector<Symbol>{A, B, C, D}));
  EXPECT_EQ(X.FieldUses,
            (std::vector<std::pair<Symbol, Symbol>>{{A, F}, {C, F}}));
  EXPECT_TRUE(X.usesField(C, F));
  EXPECT_FALSE(X.usesField(B, F));
  X.eraseVar(B);
  X.eraseVar(B);
  EXPECT_EQ(X.Vars, (std::vector<Symbol>{A, C, D}));
  EXPECT_FALSE(X.usesVar(B));
  EXPECT_TRUE(X.usesVar(D));
}

TEST(Liveness, UseCacheComputesPerBodyAndSurvivesClear) {
  DiagnosticEngine Diags;
  auto P = parseProgram(R"(
struct s { f : s; }
def g(x : s) : int { let y = x.f; y.f = x; 0 }
def h(z : s) : int { z.f = z; 1 }
)",
                        Diags);
  ASSERT_TRUE(P.has_value()) << Diags.renderAll();
  Symbol X = P->Names.intern("x"), Y = P->Names.intern("y"),
         Z = P->Names.intern("z"), F = P->Names.intern("f");
  UseCache Cache(*P);
  for (int Round = 0; Round < 2; ++Round) {
    Cache.clear();
    const UseSet &G = Cache.uses(*P->Functions[0].Body);
    // The let-bound y is dropped from the variables, not from the slots.
    EXPECT_EQ(G.Vars, (std::vector<Symbol>{X}));
    EXPECT_TRUE(G.usesField(X, F));
    EXPECT_TRUE(G.usesField(Y, F));
    // Same node, same set.
    EXPECT_EQ(&G, &Cache.uses(*P->Functions[0].Body));
    Cache.clear();
    const UseSet &H = Cache.uses(*P->Functions[1].Body);
    EXPECT_EQ(H.Vars, (std::vector<Symbol>{Z}));
    EXPECT_EQ(H.FieldUses,
              (std::vector<std::pair<Symbol, Symbol>>{{Z, F}}));
  }
}

TEST(Checker, Fig4BrokenRemoveTailRejected) {
  std::string Err = compileErr(programs::DllBrokenRemoveTail);
  EXPECT_NE(Err.find("remove_tail"), std::string::npos) << Err;
}

} // namespace

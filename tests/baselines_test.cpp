//===- tests/baselines_test.cpp -------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// The Table 1 comparison (§9.5), derived mechanically: the global-
// domination baseline (LaCasa row) rejects sll remove_tail but represents
// the dll; the affine baseline (Rust/Unique row) accepts sll but cannot
// represent the dll; this paper's checker accepts both.
//
//===----------------------------------------------------------------------===//

#include "baselines/AffineChecker.h"
#include "baselines/GlobalDomChecker.h"
#include "driver/CompilePipeline.h"
#include "parser/Parser.h"

#include <gtest/gtest.h>

using namespace fearless;

namespace {

struct BaselineFixture : ::testing::Test {
  std::optional<Program> parse(const char *Source) {
    DiagnosticEngine Diags;
    auto P = parseProgram(Source, Diags);
    EXPECT_TRUE(P.has_value()) << Diags.renderAll();
    return P;
  }
};

TEST_F(BaselineFixture, GlobalDomRejectsSllRemoveTail) {
  auto P = parse(programs::SllSuite);
  StructTable Structs;
  DiagnosticEngine Diags;
  ASSERT_TRUE(Structs.build(*P, Diags));
  const FnDecl *RemoveTail = P->findFunction(P->Names.intern("remove_tail"));
  ASSERT_NE(RemoveTail, nullptr);
  BaselineResult R = globalDomCheckFunction(*P, Structs, *RemoveTail);
  EXPECT_FALSE(R.Accepted);
  ASSERT_FALSE(R.Errors.empty());
  EXPECT_NE(R.Errors[0].Message.find("destructive read"),
            std::string::npos);
}

TEST_F(BaselineFixture, GlobalDomRepresentsDll) {
  auto P = parse(programs::DllSuite);
  StructTable Structs;
  DiagnosticEngine Diags;
  ASSERT_TRUE(Structs.build(*P, Diags));
  for (const StructDecl &S : P->Structs)
    EXPECT_TRUE(globalDomCheckStruct(*P, Structs, S).Accepted);
}

TEST_F(BaselineFixture, GlobalDomAcceptsFreshIsoStores) {
  auto P = parse(R"(
struct data { value : int; }
struct box { iso item : data?; }
def fill(b : box) : unit {
  b.item = some new data(1);
}
)");
  StructTable Structs;
  DiagnosticEngine Diags;
  ASSERT_TRUE(Structs.build(*P, Diags));
  BaselineResult R = globalDomCheckProgram(*P, Structs);
  EXPECT_TRUE(R.Accepted);
}

TEST_F(BaselineFixture, GlobalDomRejectsAliasedIsoStores) {
  auto P = parse(R"(
struct data { value : int; }
struct box { iso item : data?; }
def steal(b : box, d : data) : unit {
  b.item = some d;
}
)");
  StructTable Structs;
  DiagnosticEngine Diags;
  ASSERT_TRUE(Structs.build(*P, Diags));
  BaselineResult R = globalDomCheckProgram(*P, Structs);
  EXPECT_FALSE(R.Accepted);
}

TEST_F(BaselineFixture, GlobalDomRejectsIfDisconnected) {
  auto P = parse(programs::DllSuite);
  StructTable Structs;
  DiagnosticEngine Diags;
  ASSERT_TRUE(Structs.build(*P, Diags));
  const FnDecl *RemoveTail = P->findFunction(P->Names.intern("remove_tail"));
  BaselineResult R = globalDomCheckFunction(*P, Structs, *RemoveTail);
  EXPECT_FALSE(R.Accepted);
}

TEST_F(BaselineFixture, AffineRejectsDllRepresentation) {
  auto P = parse(programs::DllSuite);
  StructTable Structs;
  DiagnosticEngine Diags;
  ASSERT_TRUE(Structs.build(*P, Diags));
  const StructDecl *Node = P->findStruct(P->Names.intern("dll_node"));
  ASSERT_NE(Node, nullptr);
  BaselineResult R = affineCheckStruct(*P, Structs, *Node);
  EXPECT_FALSE(R.Accepted);
  EXPECT_NE(R.Errors[0].Message.find("aliasing"), std::string::npos);
}

TEST_F(BaselineFixture, AffineAcceptsSllSuite) {
  auto P = parse(programs::SllSuite);
  StructTable Structs;
  DiagnosticEngine Diags;
  ASSERT_TRUE(Structs.build(*P, Diags));
  BaselineResult R = affineCheckProgram(*P, Structs);
  EXPECT_TRUE(R.Accepted) << (R.Errors.empty()
                                  ? ""
                                  : R.Errors[0].Message);
}

TEST_F(BaselineFixture, AffineCatchesUseAfterMove) {
  auto P = parse(R"(
struct data { value : int; }
struct node { iso payload : data; iso next : node?; }
def f(a : node, b : node) : unit {
  a.next = some b;
  b.next = none;
}
)");
  StructTable Structs;
  DiagnosticEngine Diags;
  ASSERT_TRUE(Structs.build(*P, Diags));
  BaselineResult R = affineCheckProgram(*P, Structs);
  EXPECT_FALSE(R.Accepted);
  EXPECT_NE(R.Errors[0].Message.find("moved"), std::string::npos);
}

TEST_F(BaselineFixture, ThisPaperAcceptsBoth) {
  EXPECT_TRUE(buildArtifact(programs::SllSuite).hasValue());
  EXPECT_TRUE(buildArtifact(programs::DllSuite).hasValue());
}

} // namespace

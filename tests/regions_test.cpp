//===- tests/regions_test.cpp ---------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// The static contexts of §4.3: well-formedness, attach semantics,
// canonical renaming, and equivalence up to renaming.
//
//===----------------------------------------------------------------------===//

#include "regions/Canonical.h"
#include "regions/Contexts.h"

#include <gtest/gtest.h>

using namespace fearless;

namespace {

struct Fixture : ::testing::Test {
  Interner Names;
  RegionSupply Supply;
  Symbol X, Y, F, G;
  Symbol S;

  void SetUp() override {
    X = Names.intern("x");
    Y = Names.intern("y");
    F = Names.intern("f");
    G = Names.intern("g");
    S = Names.intern("s");
  }

  /// Builds: r1<x[f -> r2]>, r2<> ; x : r1 s
  Contexts tracked() {
    Contexts Ctx;
    RegionId R1 = Supply.fresh();
    RegionId R2 = Supply.fresh();
    Ctx.Heap.addRegion(R1);
    Ctx.Heap.addRegion(R2);
    Ctx.Heap.lookup(R1)->Vars[X].Fields[F] = R2;
    Ctx.Vars.bind(X, VarBinding{R1, Type::structTy(S)});
    return Ctx;
  }
};

TEST_F(Fixture, WellFormedAcceptsTracked) {
  Contexts Ctx = tracked();
  EXPECT_EQ(checkWellFormed(Ctx, Names), std::nullopt);
}

TEST_F(Fixture, WellFormedRejectsDoubleTracking) {
  Contexts Ctx = tracked();
  RegionId R3 = Supply.fresh();
  Ctx.Heap.addRegion(R3);
  Ctx.Heap.lookup(R3)->Vars[X]; // x tracked in a second region
  auto Problem = checkWellFormed(Ctx, Names);
  ASSERT_TRUE(Problem.has_value());
  EXPECT_EQ(*Problem, "variable 'x' tracked in two regions (r1 and r3)");
}

TEST_F(Fixture, WellFormedNamesTheFirstTrackingRegion) {
  // x tracked in r1, r3 and r4: the message pairs the first two.
  Contexts Ctx = tracked();
  RegionId R3 = Supply.fresh();
  RegionId R4 = Supply.fresh();
  Ctx.Heap.addRegion(R4);
  Ctx.Heap.addRegion(R3);
  Ctx.Heap.lookup(R4)->Vars[X];
  Ctx.Heap.lookup(R3)->Vars[X];
  EXPECT_EQ(checkWellFormed(Ctx, Names),
            "variable 'x' tracked in two regions (r1 and r3)");
}

TEST_F(Fixture, WellFormedRejectsUnboundTrackedVar) {
  Contexts Ctx = tracked();
  Ctx.Vars.erase(X);
  EXPECT_EQ(checkWellFormed(Ctx, Names),
            "tracked variable 'x' is not bound in Γ");
}

TEST_F(Fixture, WellFormedRejectsMismatchedBindingRegion) {
  Contexts Ctx = tracked();
  RegionId Other = Supply.fresh();
  Ctx.Heap.addRegion(Other);
  Ctx.Vars.bind(X, VarBinding{Other, Type::structTy(S)});
  EXPECT_EQ(checkWellFormed(Ctx, Names),
            "tracked variable 'x' is bound to r3 but tracked in r1");
}

TEST_F(Fixture, WellFormedRejectsNonStructTrackedVar) {
  Contexts Ctx = tracked();
  Ctx.Vars.bind(X, VarBinding{Ctx.Vars.lookup(X)->Region,
                              Type::structTy(S).asMaybe()});
  EXPECT_EQ(checkWellFormed(Ctx, Names),
            "tracked variable 'x' does not have a struct type");
}

TEST_F(Fixture, AttachMergesTrackingAndRenames) {
  Contexts Ctx = tracked();
  RegionId R1 = Ctx.Vars.lookup(X)->Region;
  RegionId R3 = Supply.fresh();
  Ctx.Heap.addRegion(R3);
  Ctx.Vars.bind(Y, VarBinding{R3, Type::structTy(S)});
  Ctx.Heap.lookup(R3)->Vars[Y].Fields[G] = R1;

  ASSERT_TRUE(Ctx.Heap.canAttach(R3, R1));
  Ctx.Heap.attach(R3, R1);
  Ctx.Vars.renameRegion(R3, R1);

  EXPECT_FALSE(Ctx.Heap.hasRegion(R3));
  EXPECT_EQ(Ctx.Vars.lookup(Y)->Region, R1);
  // y's tracking moved into r1, its field target renamed to r1.
  const VarTrack *YTrack = Ctx.Heap.trackedVar(R1, Y);
  ASSERT_NE(YTrack, nullptr);
  EXPECT_EQ(YTrack->Fields.at(G), R1);
  EXPECT_EQ(checkWellFormed(Ctx, Names), std::nullopt);
}

TEST_F(Fixture, AttachRefusesVariableConflicts) {
  Contexts Ctx = tracked();
  RegionId R1 = Ctx.Vars.lookup(X)->Region;
  RegionId R3 = Supply.fresh();
  Ctx.Heap.addRegion(R3);
  Ctx.Heap.lookup(R3)->Vars[X]; // x "tracked" in R3 too (ill-formed setup)
  EXPECT_FALSE(Ctx.Heap.canAttach(R3, R1));
}

TEST_F(Fixture, AttachRefusesPinned) {
  Contexts Ctx = tracked();
  RegionId R1 = Ctx.Vars.lookup(X)->Region;
  RegionId R3 = Supply.fresh();
  Ctx.Heap.addRegion(R3);
  Ctx.Heap.lookup(R3)->Pinned = true;
  EXPECT_FALSE(Ctx.Heap.canAttach(R3, R1));
  EXPECT_FALSE(Ctx.Heap.canAttach(R1, R3));
}

TEST_F(Fixture, EquivalenceUpToRenaming) {
  Contexts A = tracked();
  Contexts B = tracked(); // fresh region numbers
  EXPECT_FALSE(A == B);   // names differ
  EXPECT_TRUE(equivalentUpToRenaming(A, RegionId(), B, RegionId()));
}

TEST_F(Fixture, EquivalenceDistinguishesStructure) {
  Contexts A = tracked();
  Contexts B = tracked();
  // B: untrack x.f (keep the region as garbage anchor via y).
  RegionId BR1 = B.Vars.lookup(X)->Region;
  RegionId BR2 = B.Heap.trackedVar(BR1, X)->Fields.at(F);
  B.Heap.lookup(BR1)->Vars[X].Fields.erase(F);
  B.Vars.bind(Y, VarBinding{BR2, Type::structTy(S)});
  EXPECT_FALSE(equivalentUpToRenaming(A, RegionId(), B, RegionId()));
}

TEST_F(Fixture, EquivalenceChecksPins) {
  Contexts A = tracked();
  Contexts B = tracked();
  B.Heap.lookup(B.Vars.lookup(X)->Region)->Pinned = true;
  EXPECT_FALSE(equivalentUpToRenaming(A, RegionId(), B, RegionId()));
}

TEST_F(Fixture, DropUnreachableRemovesGarbage) {
  Contexts Ctx = tracked();
  RegionId Garbage = Supply.fresh();
  Ctx.Heap.addRegion(Garbage);
  dropUnreachableRegions(Ctx);
  EXPECT_FALSE(Ctx.Heap.hasRegion(Garbage));
  // Anchored regions stay.
  EXPECT_TRUE(Ctx.Heap.hasRegion(Ctx.Vars.lookup(X)->Region));
}

TEST_F(Fixture, DropUnreachableKeepsExtraRoot) {
  Contexts Ctx = tracked();
  RegionId Result = Supply.fresh();
  Ctx.Heap.addRegion(Result);
  dropUnreachableRegions(Ctx, Result);
  EXPECT_TRUE(Ctx.Heap.hasRegion(Result));
}

TEST_F(Fixture, CanonicalizeIdentifiesDeadTargets) {
  Contexts A = tracked();
  Contexts B = tracked();
  // Point both tracked fields at (different) dead regions.
  RegionId AR1 = A.Vars.lookup(X)->Region;
  RegionId AR2 = A.Heap.trackedVar(AR1, X)->Fields.at(F);
  A.Heap.removeRegion(AR2);
  RegionId BR1 = B.Vars.lookup(X)->Region;
  RegionId BR2 = B.Heap.trackedVar(BR1, X)->Fields.at(F);
  B.Heap.removeRegion(BR2);
  EXPECT_TRUE(equivalentUpToRenaming(A, RegionId(), B, RegionId()));
}

TEST_F(Fixture, ResultRootParticipatesInEquivalence) {
  Contexts A = tracked();
  Contexts B = tracked();
  RegionId AR2 =
      A.Heap.trackedVar(A.Vars.lookup(X)->Region, X)->Fields.at(F);
  RegionId BFresh = Supply.fresh();
  B.Heap.addRegion(BFresh);
  // A's result aliases x.f's target; B's result is separate.
  EXPECT_FALSE(equivalentUpToRenaming(A, AR2, B, BFresh));
}

TEST_F(Fixture, PrintingIsStable) {
  Contexts Ctx = tracked();
  std::string Text = toString(Ctx, Names);
  EXPECT_NE(Text.find("x[f -> "), std::string::npos);
  EXPECT_NE(Text.find("x : "), std::string::npos);
}

} // namespace

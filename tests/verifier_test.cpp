//===- tests/verifier_test.cpp --------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// The prover–verifier architecture of §5: every emitted derivation
// re-checks, and corrupted derivations (simulating prover bugs) are
// rejected by the independent verifier.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace fearless;

namespace {

Pipeline mustCompile(std::string_view Source) {
  Expected<Pipeline> Result = compile(Source);
  EXPECT_TRUE(Result.hasValue())
      << (Result.hasValue() ? "" : Result.error().render());
  return Result ? std::move(*Result) : Pipeline{};
}

TEST(Verifier, AllSuitesVerify) {
  for (const char *Source :
       {programs::SllSuite, programs::DllSuite, programs::RedBlackTree,
        programs::MessagePassing, programs::BitTrie, programs::Extras}) {
    Pipeline P = mustCompile(Source);
    Expected<VerifyStats> Stats = verifyProgram(P.Checked);
    ASSERT_TRUE(Stats.hasValue())
        << (Stats ? "" : Stats.error().render());
    EXPECT_GT(Stats->StepsChecked, 0u);
  }
}

/// Finds the first derivation step with the given rule, depth-first.
std::optional<StepId> findStep(const Derivation &D, RuleId Rule,
                               StepId From = 0) {
  if (D.step(From).Rule == Rule)
    return From;
  for (StepId C = D.step(From).FirstChild; C != NoStep;
       C = D.step(C).NextSibling)
    if (auto Found = findStep(D, Rule, C))
      return Found;
  return std::nullopt;
}

TEST(Verifier, CatchesCorruptedFocus) {
  Pipeline P = mustCompile(programs::SllSuite);
  Symbol Sum = P.Prog->Names.intern("sum_node");
  CheckedFunction &Fn = P.Checked.Functions.at(Sum);
  Derivation &D = *Fn.Deriv;
  auto Focus = findStep(D, RuleId::V1Focus);
  ASSERT_TRUE(Focus.has_value());
  // Corrupt: pretend the focused region was already tracking a variable.
  Symbol Ghost = P.Prog->Names.intern("ghost");
  Contexts &Before = D.ownBefore(*Focus);
  ASSERT_FALSE(Before.Heap.entries().empty());
  Before.Heap.lookup(Before.Heap.entries().begin()->first)->Vars[Ghost];
  Expected<VerifyStats> Stats = verifyFunction(P.Checked, Fn);
  ASSERT_FALSE(Stats.hasValue());
}

TEST(Verifier, CatchesCorruptedExploreTarget) {
  Pipeline P = mustCompile(programs::SllSuite);
  Symbol Sum = P.Prog->Names.intern("sum_node");
  CheckedFunction &Fn = P.Checked.Functions.at(Sum);
  Derivation &D = *Fn.Deriv;
  auto Explore = findStep(D, RuleId::V3Explore);
  ASSERT_TRUE(Explore.has_value());
  // Corrupt: make the "fresh" target region pre-exist in the Before
  // context.
  Contexts &Before = D.ownBefore(*Explore);
  for (const auto &[Region, Track] : D.after(D.step(*Explore)).Heap.entries()) {
    (void)Track;
    if (!Before.Heap.hasRegion(Region)) {
      Before.Heap.addRegion(Region);
      break;
    }
  }
  Expected<VerifyStats> Stats = verifyFunction(P.Checked, Fn);
  ASSERT_FALSE(Stats.hasValue());
  EXPECT_NE(Stats.error().Message.find("V3"), std::string::npos);
}

TEST(Verifier, CatchesIllFormedContext) {
  Pipeline P = mustCompile(programs::SllSuite);
  Symbol Length = P.Prog->Names.intern("length_node");
  CheckedFunction &Fn = P.Checked.Functions.at(Length);
  // Corrupt a focus step's After: bind the tracked variable to the wrong
  // region.
  auto Step = findStep(*Fn.Deriv, RuleId::V1Focus);
  ASSERT_TRUE(Step.has_value());
  Contexts &After = Fn.Deriv->ownAfter(*Step);
  After.Vars.renameRegion(After.Vars.entries().begin()->second.Region,
                          RegionId{9999});
  Expected<VerifyStats> Stats = verifyFunction(P.Checked, Fn);
  ASSERT_FALSE(Stats.hasValue());
  EXPECT_NE(Stats.error().Message.find("ill-formed context after V1-Focus"),
            std::string::npos)
      << Stats.error().Message;
}

TEST(Verifier, CatchesWrongFinalContext) {
  Pipeline P = mustCompile(programs::SllSuite);
  Symbol Length = P.Prog->Names.intern("length");
  CheckedFunction &Fn = P.Checked.Functions.at(Length);
  // Corrupt the root's final context: drop the parameter's region.
  Contexts &Final = Fn.Deriv->ownAfter(0);
  ASSERT_FALSE(Final.Heap.entries().empty());
  Final.Heap.removeRegion(Final.Heap.entries().begin()->first);
  Expected<VerifyStats> Stats = verifyFunction(P.Checked, Fn);
  ASSERT_FALSE(Stats.hasValue());
}

TEST(Verifier, DerivationPrintingMentionsRules) {
  Pipeline P = mustCompile(programs::SllSuite);
  Symbol Sum = P.Prog->Names.intern("sum_node");
  const CheckedFunction &Fn = P.Checked.Functions.at(Sum);
  std::string Text = printDerivation(*Fn.Deriv, P.Prog->Names);
  EXPECT_NE(Text.find("T5-Isolated-Field-Reference"), std::string::npos);
  EXPECT_NE(Text.find(ruleName(RuleId::V1Focus)), std::string::npos);
  EXPECT_NE(Text.find(ruleName(RuleId::V3Explore)), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Shared snapshots
//===----------------------------------------------------------------------===//

/// How many steps refer to each snapshot (as Before or After).
std::vector<size_t> snapshotUses(const Derivation &D) {
  std::vector<size_t> Uses(D.snapshots().size(), 0);
  for (const DerivStep &Step : D.steps()) {
    ++Uses[Step.Before];
    if (Step.After != Step.Before)
      ++Uses[Step.After];
  }
  return Uses;
}

/// A snapshot with at least one region that at least \p MinSharers steps
/// refer to.
std::optional<SnapshotId> sharedSnapshot(const Derivation &D,
                                         size_t MinSharers) {
  std::vector<size_t> Uses = snapshotUses(D);
  for (SnapshotId Id = 0; Id < Uses.size(); ++Id)
    if (Uses[Id] >= MinSharers && !D.snapshot(Id).Heap.entries().empty())
      return Id;
  return std::nullopt;
}

TEST(Verifier, StepsShareSnapshots) {
  Pipeline P = mustCompile(programs::SllSuite);
  for (const auto &[Name, Fn] : P.Checked.Functions) {
    const Derivation &D = *Fn.Deriv;
    // Every snapshot is referenced by some step, and there are fewer of
    // them than the two per step a copy per Before/After would take.
    for (size_t Uses : snapshotUses(D))
      EXPECT_GT(Uses, 0u) << P.Prog->Names.spelling(Name);
    EXPECT_LT(D.snapshots().size(), 2 * D.steps().size());
  }
}

TEST(Verifier, RejectsCorruptedSharedSnapshot) {
  Pipeline P = mustCompile(programs::SllSuite);
  CheckedFunction &Fn =
      P.Checked.Functions.at(P.Prog->Names.intern("sum_node"));
  Derivation &D = *Fn.Deriv;
  auto Shared = sharedSnapshot(D, 3);
  ASSERT_TRUE(Shared.has_value());
  // Track a variable that Γ does not bind: ill-formed (§4.3), whichever
  // of the sharing steps looks at it first.
  Contexts &Ctx = D.snapshot(*Shared);
  Ctx.Heap.lookup(Ctx.Heap.entries().begin()->first)
      ->Vars[P.Prog->Names.intern("ghost")];
  Expected<VerifyStats> Stats = verifyFunction(P.Checked, Fn);
  ASSERT_FALSE(Stats.hasValue());
  EXPECT_NE(Stats.error().Message.find("ill-formed context"),
            std::string::npos)
      << Stats.error().Message;
  EXPECT_NE(Stats.error().Message.find("is not bound in Γ"),
            std::string::npos);
}

TEST(Verifier, TamperingCopiesOnWrite) {
  Pipeline P = mustCompile(programs::SllSuite);
  CheckedFunction &Fn =
      P.Checked.Functions.at(P.Prog->Names.intern("sum_node"));
  Derivation &D = *Fn.Deriv;
  auto Shared = sharedSnapshot(D, 3);
  ASSERT_TRUE(Shared.has_value());
  StepId Tampered = NoStep;
  for (StepId Id = 0; Id < D.steps().size() && Tampered == NoStep; ++Id)
    if (D.step(Id).Before == *Shared)
      Tampered = Id;
  ASSERT_NE(Tampered, NoStep);
  Contexts Original = D.snapshot(*Shared);

  // A private, unchanged copy: equal contents under another id verify.
  D.ownBefore(Tampered);
  EXPECT_NE(D.step(Tampered).Before, *Shared);
  EXPECT_TRUE(verifyFunction(P.Checked, Fn).hasValue());

  // Changing the copy is caught, and leaves the shared snapshot alone.
  Contexts &Copy = D.snapshot(D.step(Tampered).Before);
  Copy.Heap.lookup(Copy.Heap.entries().begin()->first)
      ->Vars[P.Prog->Names.intern("ghost")];
  EXPECT_FALSE(verifyFunction(P.Checked, Fn).hasValue());
  EXPECT_TRUE(D.snapshot(*Shared) == Original);

  // Pointing the step back at the shared snapshot verifies again: the
  // steps that kept sharing it never saw the change.
  D.step(Tampered).Before = *Shared;
  EXPECT_TRUE(verifyFunction(P.Checked, Fn).hasValue());
}

std::string readSourceFile(const std::string &Rel) {
  std::ifstream In(std::string(FEARLESS_SOURCE_DIR) + "/" + Rel,
                   std::ios::binary);
  EXPECT_TRUE(In.good()) << "cannot open " << Rel;
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

TEST(Verifier, WidenedWhileKeepsOnlyTheStableIteration) {
  Pipeline P =
      mustCompile(readSourceFile("tests/fixtures/widened_while.fls"));
  const CheckedFunction &Fn =
      P.Checked.Functions.at(P.Prog->Names.intern("widen"));
  ASSERT_GE(Fn.Stats.LoopIterations, 2u); // one unstable, one stable
  const Derivation &D = *Fn.Deriv;
  // The golden derive output prints one "⊢" line per step.
  std::string Golden =
      readSourceFile("tests/fixtures/golden/widened_while.widen.derive");
  size_t GoldenSteps = 0;
  for (size_t Pos = Golden.find("⊢"); Pos != std::string::npos;
       Pos = Golden.find("⊢", Pos + 1))
    ++GoldenSteps;
  EXPECT_EQ(countSteps(D), GoldenSteps);
  EXPECT_EQ(countSteps(D, RuleId::TWhileBody), 1u);
  // Nothing of the unstable iteration stays behind, linked or not.
  EXPECT_EQ(D.steps().size(), GoldenSteps);
  for (size_t Uses : snapshotUses(D))
    EXPECT_GT(Uses, 0u);
  Expected<VerifyStats> Stats = verifyFunction(P.Checked, Fn);
  ASSERT_TRUE(Stats.hasValue()) << Stats.error().render();
  EXPECT_EQ(Stats->StepsChecked, GoldenSteps);
}

TEST(Verifier, StatsCountVirtualSteps) {
  Pipeline P = mustCompile(programs::DllSuite);
  Expected<VerifyStats> Stats = verifyProgram(P.Checked);
  ASSERT_TRUE(Stats.hasValue());
  EXPECT_GT(Stats->VirtualStepsChecked, 10u);
}

} // namespace

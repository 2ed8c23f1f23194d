//===- tests/soundness_test.cpp -------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// Theorems 6.1/6.2, dynamically: the §6 invariants hold at *every*
// intermediate machine state of every suite workload, under multiple
// interleavings. Plus the ablation experiments for the conformance
// engine's design choices (DESIGN.md): turning off wholesale drops or the
// protected-region guard makes specific paper programs uncheckable,
// demonstrating why they are load-bearing.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "checker/Unify.h"
#include "mc/Dpor.h"
#include "runtime/Invariants.h"

#include <gtest/gtest.h>

using namespace fearless;
using namespace fearless::testutil;

namespace {

/// The per-step validator: reservation disjointness and stored-refcount
/// accuracy at every state. (Reservation *closure* is deliberately not
/// checked mid-run: after a send, stale stack bindings may still point at
/// transferred objects — I1 only promises that no well-typed expression
/// can *step to* them, which the machine's own per-access checks enforce
/// at every step.)
std::optional<std::string> validateState(const Machine &M) {
  if (auto Problem = checkReservationsDisjoint(M))
    return Problem;
  if (auto Problem = checkStoredRefCounts(M.heap()))
    return Problem;
  return std::nullopt;
}

TEST(Soundness, EveryStepOfDllRemoveTailIsSound) {
  // Formerly a three-seed sample; the model checker now walks the full
  // (here: single-threaded, so singleton) schedule space with the §6
  // validators machine-checking every small step.
  auto Built = mustBuild(programs::DllSuite);
  const Pipeline &P = Built->P;
  Expected<mc::McReport> Rep = mc::explore(
      [&P]() {
        MachineOptions Opts;
        Opts.StepValidator = validateState;
        auto M = std::make_unique<Machine>(P.Checked, Opts);
        ThreadId T = M->createThread();
        Loc List = buildDll(P, *M, T, {1, 2, 3, 4});
        M->startThread(T, sym(P, "remove_tail"), {Value::locVal(List)});
        return M;
      },
      mc::McOptions{});
  ASSERT_TRUE(Rep.hasValue()) << (Rep ? "" : Rep.error().render());
  EXPECT_TRUE(Rep->Complete) << Rep->Clipped;
  EXPECT_FALSE(Rep->Counterexample.has_value())
      << Rep->Counterexample->Reason;
  EXPECT_GE(Rep->SchedulesExplored, 1u);
}

TEST(Soundness, EveryStepOfMessagePipelineIsSound) {
  // Formerly seeds {0, 3, 9}; now every interleaving of the two-thread
  // whole-list pipeline, with the validators run at each step of each
  // schedule.
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  Expected<mc::McReport> Rep = mc::explore(
      [&P]() {
        MachineOptions Opts;
        Opts.StepValidator = validateState;
        auto M = std::make_unique<Machine>(P.Checked, Opts);
        M->spawn(sym(P, "producer_lists"),
                 {Value::intVal(2), Value::intVal(3)});
        M->spawn(sym(P, "consumer_lists"), {Value::intVal(2)});
        return M;
      },
      mc::McOptions{});
  ASSERT_TRUE(Rep.hasValue()) << (Rep ? "" : Rep.error().render());
  EXPECT_TRUE(Rep->Complete) << Rep->Clipped;
  EXPECT_FALSE(Rep->Counterexample.has_value())
      << Rep->Counterexample->Reason;
  EXPECT_GE(Rep->SchedulesExplored, 2u);
}

TEST(Soundness, EveryStepOfRbInsertIsSound) {
  std::string Source = std::string(programs::RedBlackTree) + R"prog(
def drive(count : int) : bool {
  let t = rb_new();
  let i = 0;
  while (i < count) {
    let p = new data((i * 37) % 17) in { rb_insert(t, p) };
    i = i + 1
  };
  rb_check(t)
}
)prog";
  auto Built = mustBuild(Source);
  const Pipeline &P = Built->P;
  MachineOptions Opts;
  Opts.StepValidator = validateState;
  Machine M(P.Checked, Opts);
  M.spawn(sym(P, "drive"), {Value::intVal(12)});
  Expected<MachineSummary> R = M.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ(R->ThreadResults[0], Value::boolVal(true));
}

TEST(Soundness, ValidatorItselfDetectsInjectedBreakage) {
  // Sanity for the harness: a validator that always complains aborts the
  // run immediately.
  auto Built = mustBuild(programs::SllSuite);
  const Pipeline &P = Built->P;
  MachineOptions Opts;
  Opts.StepValidator = [](const Machine &) {
    return std::optional<std::string>("synthetic failure");
  };
  Machine M(P.Checked, Opts);
  ThreadId T = M.createThread();
  Loc List = buildSll(P, M, T, {1});
  M.startThread(T, sym(P, "length"), {Value::locVal(List)});
  Expected<MachineSummary> R = M.run();
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().Message.find("synthetic failure"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Ablations (DESIGN.md "Key design decisions")
//===----------------------------------------------------------------------===//

/// RAII toggle for the global ablation configuration.
struct AblationGuard {
  ConformAblation Saved;
  AblationGuard() : Saved(conformAblation()) {}
  ~AblationGuard() { conformAblation() = Saved; }
};

TEST(Ablation, WholesaleDropsAreLoadBearing) {
  AblationGuard Guard;
  // Baseline: everything checks.
  ASSERT_TRUE(buildArtifact(programs::SllSuite).hasValue());
  ASSERT_TRUE(buildArtifact(programs::Extras).hasValue());
  ASSERT_TRUE(buildArtifact(programs::DllSuite).hasValue());

  conformAblation().WholesaleDrops = false;
  // The sll suite's pop_front/remove_tail park the returned payload under
  // a local node's tracking; scope exit must drop the node's region
  // wholesale to keep the payload capability alive.
  EXPECT_FALSE(buildArtifact(programs::SllSuite).hasValue());
  EXPECT_FALSE(buildArtifact(programs::Extras).hasValue());
  // The dll suite survives: its merges invalidate dead locals through the
  // validity meet (a different weakening), showing the two mechanisms are
  // separable.
  EXPECT_TRUE(buildArtifact(programs::DllSuite).hasValue());
}

TEST(Ablation, ProtectedGuardIsLoadBearing) {
  AblationGuard Guard;
  ASSERT_TRUE(buildArtifact(programs::DllSuite).hasValue());

  conformAblation().ProtectedGuard = false;
  // Without the guard, branch conformance retracts the field whose target
  // holds the live result (dropping the result's region) and the merge
  // fails.
  EXPECT_FALSE(buildArtifact(programs::DllSuite).hasValue());
}

TEST(Ablation, SimpleProgramsSurviveAblations) {
  // Programs that never park live values under tracked fields keep
  // checking even with both mechanisms off — the ablations isolate
  // exactly the expressiveness the mechanisms buy.
  AblationGuard Guard;
  conformAblation().WholesaleDrops = false;
  conformAblation().ProtectedGuard = false;
  const char *Simple = R"(
struct data { value : int; }
def f(a : data, c : bool) : int {
  if (c) { a.value } else { 0 - a.value }
}
)";
  EXPECT_TRUE(buildArtifact(Simple).hasValue());
}

} // namespace

//===- tests/machine_test.cpp ---------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// End-to-end execution of the checked sample programs on the abstract
// machine: list manipulations behave like their textbook counterparts,
// `if disconnected` takes the right branch for size-1 vs size-2+ lists
// (the Fig. 4/5 story), the red-black tree stays balanced, and dynamic
// reservation checks never fire on well-typed programs.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "runtime/Invariants.h"

#include <gtest/gtest.h>

using namespace fearless;
using namespace fearless::testutil;

namespace {

/// Builds an sll in a fresh thread and runs FnName(list, extra...).
Expected<MachineSummary> runOnSll(Pipeline &P, Machine &M,
                                  const char *FnName,
                                  const std::vector<int64_t> &Values,
                                  std::vector<Value> ExtraArgs,
                                  Loc *ListOut = nullptr) {
  ThreadId T = M.createThread();
  Loc List = buildSll(P, M, T, Values);
  if (ListOut)
    *ListOut = List;
  std::vector<Value> Args{Value::locVal(List)};
  for (const Value &V : ExtraArgs)
    Args.push_back(V);
  M.startThread(T, P.Prog->Names.intern(FnName), std::move(Args));
  return M.run();
}

/// Same for the circular dll.
Expected<MachineSummary> runOnDll(Pipeline &P, Machine &M,
                                  const char *FnName,
                                  const std::vector<int64_t> &Values,
                                  std::vector<Value> ExtraArgs,
                                  Loc *ListOut = nullptr) {
  ThreadId T = M.createThread();
  Loc List = buildDll(P, M, T, Values);
  if (ListOut)
    *ListOut = List;
  std::vector<Value> Args{Value::locVal(List)};
  for (const Value &V : ExtraArgs)
    Args.push_back(V);
  M.startThread(T, P.Prog->Names.intern(FnName), std::move(Args));
  return M.run();
}

TEST(Machine, SllLength) {
  Pipeline P = mustCompile(programs::SllSuite);
  Machine M(P.Checked);
  Expected<MachineSummary> R = runOnSll(P, M, "length", {5, 6, 7}, {});
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ(R->ThreadResults[0], Value::intVal(3));
}

TEST(Machine, SllSum) {
  Pipeline P = mustCompile(programs::SllSuite);
  Machine M(P.Checked);
  Expected<MachineSummary> R = runOnSll(P, M, "sum", {5, 6, 7}, {});
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ(R->ThreadResults[0], Value::intVal(18));
}

TEST(Machine, SllNthValue) {
  Pipeline P = mustCompile(programs::SllSuite);
  Machine M(P.Checked);
  Expected<MachineSummary> R =
      runOnSll(P, M, "nth_value", {10, 20, 30}, {Value::intVal(2)});
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ(R->ThreadResults[0], Value::intVal(30));
}

TEST(Machine, SllRemoveTailShrinksList) {
  Pipeline P = mustCompile(programs::SllSuite);
  Machine M(P.Checked);
  Loc List;
  Expected<MachineSummary> R =
      runOnSll(P, M, "list_remove_tail", {1, 2, 3}, {}, &List);
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  // Result is the removed payload (value 3); the list keeps 1, 2.
  ASSERT_TRUE(R->ThreadResults[0].isLoc());
  EXPECT_EQ(M.hostGetField(R->ThreadResults[0].asLoc(), sym(P, "value")),
            Value::intVal(3));
  EXPECT_EQ(std::vector<int64_t>({1, 2}), readSll(P, M, List));
  EXPECT_EQ(checkStoredRefCounts(M.heap()), std::nullopt);
}

TEST(Machine, SllPopFront) {
  Pipeline P = mustCompile(programs::SllSuite);
  Machine M(P.Checked);
  Loc List;
  Expected<MachineSummary> R =
      runOnSll(P, M, "pop_front", {9, 8, 7}, {}, &List);
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  ASSERT_TRUE(R->ThreadResults[0].isLoc());
  EXPECT_EQ(M.hostGetField(R->ThreadResults[0].asLoc(), sym(P, "value")),
            Value::intVal(9));
  EXPECT_EQ(std::vector<int64_t>({8, 7}), readSll(P, M, List));
}

TEST(Machine, DllRemoveTailSizeTwo) {
  Pipeline P = mustCompile(programs::DllSuite);
  Machine M(P.Checked);
  Loc List;
  Expected<MachineSummary> R =
      runOnDll(P, M, "remove_tail", {10, 20}, {}, &List);
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  // The removed payload is the tail's (20); `if disconnected` took the
  // then-branch because the two-node list splits cleanly.
  ASSERT_TRUE(R->ThreadResults[0].isLoc());
  EXPECT_EQ(M.hostGetField(R->ThreadResults[0].asLoc(), sym(P, "value")),
            Value::intVal(20));
  EXPECT_EQ(M.stats().DisconnectChecks, 1u);
  // The list still holds value 10.
  Value Hd = M.hostGetField(List, sym(P, "hd"));
  ASSERT_TRUE(Hd.isLoc());
  Value Payload = M.hostGetField(Hd.asLoc(), sym(P, "payload"));
  EXPECT_EQ(M.hostGetField(Payload.asLoc(), sym(P, "value")),
            Value::intVal(10));
}

TEST(Machine, DllRemoveTailSizeOneTakesElseBranch) {
  Pipeline P = mustCompile(programs::DllSuite);
  Machine M(P.Checked);
  Loc List;
  Expected<MachineSummary> R =
      runOnDll(P, M, "remove_tail", {42}, {}, &List);
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  // Size-1: hd and tail alias; the subgraphs intersect, the else branch
  // runs, the list becomes empty, and the head's payload is returned.
  ASSERT_TRUE(R->ThreadResults[0].isLoc());
  EXPECT_EQ(M.hostGetField(R->ThreadResults[0].asLoc(), sym(P, "value")),
            Value::intVal(42));
  EXPECT_TRUE(M.hostGetField(List, sym(P, "hd")).isNone());
}

TEST(Machine, DllValueAtWrapsAround) {
  Pipeline P = mustCompile(programs::DllSuite);
  Machine M(P.Checked);
  Expected<MachineSummary> R =
      runOnDll(P, M, "value_at", {1, 2, 3}, {Value::intVal(4)});
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  // Position 4 in a circular 3-list is position 1.
  EXPECT_EQ(R->ThreadResults[0], Value::intVal(2));
}

TEST(Machine, DllLength) {
  Pipeline P = mustCompile(programs::DllSuite);
  Machine M(P.Checked);
  Expected<MachineSummary> R = runOnDll(P, M, "length", {4, 5, 6, 7}, {});
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ(R->ThreadResults[0], Value::intVal(4));
}

TEST(Machine, DllRemoveNext) {
  Pipeline P = mustCompile(programs::DllSuite);
  {
    Machine M(P.Checked);
    Loc List;
    Expected<MachineSummary> R =
        runOnDll(P, M, "remove_next", {1, 2, 3}, {}, &List);
    ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
    ASSERT_TRUE(R->ThreadResults[0].isLoc());
    EXPECT_EQ(M.hostGetField(R->ThreadResults[0].asLoc(), sym(P, "value")),
              Value::intVal(2));
  }
  {
    // Singleton: victim aliases hd, the else-branch empties the list.
    Machine M(P.Checked);
    Loc List;
    Expected<MachineSummary> R =
        runOnDll(P, M, "remove_next", {7}, {}, &List);
    ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
    EXPECT_EQ(M.hostGetField(R->ThreadResults[0].asLoc(), sym(P, "value")),
              Value::intVal(7));
    EXPECT_TRUE(M.hostGetField(List, sym(P, "hd")).isNone());
  }
}

TEST(Machine, DllSetValueAtViaGetNthNode) {
  Pipeline P = mustCompile(programs::DllSuite);
  Machine M(P.Checked);
  Loc List;
  ThreadId T = M.createThread();
  List = buildDll(P, M, T, {1, 2, 3});
  M.startThread(T, sym(P, "set_value_at"),
                {Value::locVal(List), Value::intVal(1),
                 Value::intVal(99)});
  Expected<MachineSummary> R = M.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  // Position 1 now holds 99.
  Machine M2(P.Checked);
  ThreadId T2 = M2.createThread();
  Loc List2 = buildDll(P, M2, T2, {1, 99, 3});
  (void)List2;
  // Verify through value_at on the same machine.
  ThreadId T3 = M.createThread();
  const_cast<ThreadState &>(M.threads()[T3]).Reservation =
      M.threads()[T].Reservation;
  M.startThread(T3, sym(P, "value_at"),
                {Value::locVal(List), Value::intVal(1)});
  Expected<MachineSummary> R3 = M.run();
  ASSERT_TRUE(R3.hasValue()) << (R3 ? "" : R3.error().render());
  EXPECT_EQ(R3->ThreadResults[T3], Value::intVal(99));
}

TEST(Machine, DllInsertAfterSplices) {
  Pipeline P = mustCompile(programs::DllSuite);
  Machine M(P.Checked);
  ThreadId T = M.createThread();
  Loc List = buildDll(P, M, T, {10, 20, 30});
  Loc Payload = M.hostAlloc(T, sym(P, "data"));
  M.hostSetField(Payload, sym(P, "value"), Value::intVal(15));
  M.startThread(T, sym(P, "insert_after"),
                {Value::locVal(List), Value::intVal(0),
                 Value::locVal(Payload)});
  Expected<MachineSummary> R = M.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  // List is now 10, 15, 20, 30 (walk via next from hd).
  std::vector<int64_t> Got;
  Value Hd = M.hostGetField(List, sym(P, "hd"));
  Loc Cur = Hd.asLoc();
  for (int I = 0; I < 4; ++I) {
    Value Pl = M.hostGetField(Cur, sym(P, "payload"));
    Got.push_back(M.hostGetField(Pl.asLoc(), sym(P, "value")).asInt());
    Cur = M.hostGetField(Cur, sym(P, "next")).asLoc();
  }
  EXPECT_EQ(Got, (std::vector<int64_t>{10, 15, 20, 30}));
  EXPECT_EQ(Cur, Hd.asLoc()); // circular
}

TEST(Machine, RedBlackTreeInsertAndCheck) {
  std::string Source = std::string(programs::RedBlackTree) + R"prog(
def drive(count : int) : bool {
  let t = rb_new();
  let i = 0;
  while (i < count) {
    // Insert keys in a mixed order: (i * 7919) % 1000.
    let k = (i * 7919) % 1000;
    let p = new data(k) in { rb_insert(t, p) };
    i = i + 1
  };
  rb_check(t) && rb_size(t) == count
}
)prog";
  Pipeline P = mustCompile(Source);
  Machine M(P.Checked);
  M.spawn(sym(P, "drive"), {Value::intVal(200)});
  Expected<MachineSummary> R = M.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ(R->ThreadResults[0], Value::boolVal(true));
  EXPECT_EQ(checkStoredRefCounts(M.heap()), std::nullopt);
}

TEST(Machine, CheckpointRestoreRewindsTheWholeSession) {
  // Save mid-run, finish, restore, finish again: the second finish is
  // indistinguishable from the first — results, stats, heap, steps.
  Pipeline P = mustCompile(programs::MessagePassing);
  Machine M(P.Checked);
  M.spawn(sym(P, "producer"), {Value::intVal(3)});
  M.spawn(sym(P, "consumer"), {Value::intVal(3)});
  ASSERT_TRUE(M.beginStepping().hasValue());
  auto Finish = [&M]() -> std::string {
    while (true) {
      Expected<MachineProgress> Prog = M.checkProgress();
      if (!Prog || *Prog != MachineProgress::Running)
        break;
      if (!M.stepChosen(M.runnableThreads().back()))
        return "step failed";
    }
    return M.metrics().toJson() + " " +
           std::to_string(M.resultFingerprint()) + " " +
           std::to_string(M.heap().size());
  };
  for (int I = 0; I < 5; ++I) {
    ASSERT_TRUE(M.checkProgress().hasValue());
    ASSERT_TRUE(M.stepChosen(M.runnableThreads().front()).hasValue());
  }
  Machine::Checkpoint C;
  M.saveCheckpoint(C);
  size_t ObjectsAtSave = M.heap().size();
  std::string First = Finish();
  EXPECT_GT(M.heap().size(), ObjectsAtSave);
  M.restoreCheckpoint(C);
  EXPECT_EQ(M.heap().size(), ObjectsAtSave);
  EXPECT_EQ(checkReservationsDisjoint(M), std::nullopt);
  EXPECT_EQ(checkStoredRefCounts(M.heap()), std::nullopt);
  EXPECT_EQ(Finish(), First);
  Expected<MachineSummary> S = M.finishStepping();
  ASSERT_TRUE(S.hasValue());
  EXPECT_EQ(S->ThreadResults[1], Value::intVal(3));
}

TEST(Machine, CheckpointRestoreRewindsTheFaultInjector) {
  // The injector's occurrence counters and the last fault are session
  // state too: after a restore, the fault that ended the run fires again
  // at the same step, and before it fires no fault is on record.
  Pipeline P = mustCompile(programs::MessagePassing);
  FaultInjector FI(*parseFaultSpec("sched.step=nth:8"));
  MachineOptions MO;
  MO.Faults = &FI;
  Machine M(P.Checked, MO);
  M.spawn(sym(P, "producer"), {Value::intVal(3)});
  M.spawn(sym(P, "consumer"), {Value::intVal(3)});
  ASSERT_TRUE(M.beginStepping().hasValue());
  auto Finish = [&M]() -> std::string {
    while (true) {
      Expected<MachineProgress> Prog = M.checkProgress();
      if (!Prog)
        return Prog.error().Message;
      if (*Prog != MachineProgress::Running)
        return "finished";
      if (Expected<McStepRecord> R = M.stepChosen(M.runnableThreads()[0]);
          !R)
        return R.error().Message;
    }
  };
  for (int I = 0; I < 5; ++I) {
    ASSERT_TRUE(M.checkProgress().hasValue());
    ASSERT_TRUE(M.stepChosen(M.runnableThreads()[0]).hasValue());
  }
  Machine::Checkpoint C;
  M.saveCheckpoint(C);
  std::string First = Finish();
  EXPECT_NE(First.find("sched.step"), std::string::npos) << First;
  ASSERT_TRUE(M.lastFault().has_value());
  M.restoreCheckpoint(C);
  EXPECT_FALSE(M.lastFault().has_value());
  EXPECT_EQ(FI.occurrences(FaultPoint::SchedStep), 5u);
  EXPECT_EQ(Finish(), First);
  EXPECT_EQ(M.metrics().FaultsInjected, 1u);
}

TEST(Machine, RunReportsWallMicros) {
  // A run long enough to take at least a microsecond on any machine.
  Pipeline P = mustCompile(programs::SllSuite);
  Machine M(P.Checked);
  std::vector<int64_t> Values(2000, 1);
  ASSERT_TRUE(runOnSll(P, M, "sum", Values, {}).hasValue());
  EXPECT_GT(M.metrics().WallMicros, 0u);
  EXPECT_LT(M.metrics().WallMicros, 60'000'000u);
}

TEST(Machine, ReservationChecksRunButNeverFire) {
  Pipeline P = mustCompile(programs::SllSuite);
  Machine M(P.Checked);
  Expected<MachineSummary> R = runOnSll(P, M, "sum", {1, 2, 3}, {});
  ASSERT_TRUE(R.hasValue());
  EXPECT_GT(M.stats().ReservationChecks, 0u);
}

TEST(Machine, ChecksCanBeErased) {
  Pipeline P = mustCompile(programs::SllSuite);
  MachineOptions Opts;
  Opts.CheckReservations = false;
  Machine M(P.Checked, Opts);
  Expected<MachineSummary> R = runOnSll(P, M, "sum", {1, 2, 3}, {});
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->ThreadResults[0], Value::intVal(6));
  EXPECT_EQ(M.stats().ReservationChecks, 0u);
}

} // namespace

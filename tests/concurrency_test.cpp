//===- tests/concurrency_test.cpp -----------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// §7: the concurrent configuration. Threads exchange items and whole list
// segments over send/recv; under every explored interleaving, reservations
// stay disjoint and sufficient (I1) — the type system promises that, not
// deadlock freedom — and the real-thread executor produces the same
// answers with the dynamic checks erased.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "concurrency/ParallelExec.h"
#include "mc/Dpor.h"
#include "runtime/Invariants.h"

#include <gtest/gtest.h>

using namespace fearless;
using namespace fearless::testutil;

namespace {

TEST(Concurrency, SingleItemPipeline) {
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  Machine M(P.Checked);
  M.spawn(sym(P, "producer"), {Value::intVal(10)});
  M.spawn(sym(P, "consumer"), {Value::intVal(10)});
  Expected<MachineSummary> R = M.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  // Sum of 0..9.
  EXPECT_EQ(R->ThreadResults[1], Value::intVal(45));
  EXPECT_EQ(M.stats().Sends, 10u);
}

TEST(Concurrency, ListPipelineMovesWholeSegments) {
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  Machine M(P.Checked);
  M.spawn(sym(P, "producer_lists"),
          {Value::intVal(4), Value::intVal(5)});
  M.spawn(sym(P, "consumer_lists"), {Value::intVal(4)});
  Expected<MachineSummary> R = M.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  // Each list holds 0..4 (sum 10); four lists.
  EXPECT_EQ(R->ThreadResults[1], Value::intVal(40));
}

TEST(Concurrency, RelayRing) {
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  Machine M(P.Checked);
  M.spawn(sym(P, "producer_lists"),
          {Value::intVal(3), Value::intVal(2)});
  M.spawn(sym(P, "relay"), {Value::intVal(3)});
  M.spawn(sym(P, "consumer_lists"), {Value::intVal(3)});
  Expected<MachineSummary> R = M.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  // Each list: 0+1, plus the relay's 1000. Three lists.
  EXPECT_EQ(R->ThreadResults[2], Value::intVal(3 * (1 + 1000)));
}

TEST(Concurrency, EveryScheduleIsReservationSafe) {
  // The relay ring shares `sll` with the producer, so under some
  // schedules the consumer takes a producer's list directly and the relay
  // starves in recv<sll>: a deadlock, which the type system does not
  // rule out. What it does rule out is a reservation violation on the
  // way there: the §6 validators run at every step, and exploration
  // stops at the first counterexample, which must be the deadlock.
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  mc::MachineFactory Factory = [&P] {
    MachineOptions MO;
    MO.StepValidator = [](const Machine &M) -> std::optional<std::string> {
      if (auto Problem = checkReservationsDisjoint(M))
        return Problem;
      return checkStoredRefCounts(M.heap());
    };
    auto M = std::make_unique<Machine>(P.Checked, MO);
    M->spawn(sym(P, "producer_lists"), {Value::intVal(3), Value::intVal(3)});
    M->spawn(sym(P, "relay"), {Value::intVal(3)});
    M->spawn(sym(P, "consumer_lists"), {Value::intVal(3)});
    return M;
  };
  Expected<mc::McReport> Rep = mc::explore(Factory, mc::McOptions{});
  ASSERT_TRUE(Rep.hasValue()) << (Rep ? "" : Rep.error().render());
  ASSERT_TRUE(Rep->Counterexample.has_value());
  const mc::McCounterexample &CE = *Rep->Counterexample;
  EXPECT_EQ(CE.Reason.rfind("deadlock", 0), 0u) << CE.Reason;
  EXPECT_NE(CE.Reason.find("blocked in recv<sll>"), std::string::npos)
      << CE.Reason;

  // The counterexample replays to the same deadlock.
  std::unique_ptr<Machine> M = Factory();
  Expected<MachineSummary> R = mc::runSchedule(*M, CE.Sched);
  ASSERT_FALSE(R.hasValue());
  EXPECT_EQ(R.error().Message, CE.Reason);
}

TEST(Concurrency, ReservationsDisjointMidRun) {
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  Machine M(P.Checked);
  M.spawn(sym(P, "producer"), {Value::intVal(50)});
  M.spawn(sym(P, "consumer"), {Value::intVal(50)});
  // Run to completion, then validate; disjointness is also implicitly
  // validated by every reservation check during the run.
  Expected<MachineSummary> R = M.run(7);
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(checkReservationsDisjoint(M), std::nullopt);
}

TEST(Concurrency, DeadlockIsReported) {
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  Machine M(P.Checked);
  // A consumer with no producer: deadlock.
  M.spawn(sym(P, "consumer"), {Value::intVal(1)});
  Expected<MachineSummary> R = M.run();
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().Message.find("deadlock"), std::string::npos);
}

TEST(Concurrency, MapReduceWorkerPool) {
  // Two workers map list segments to sums; a reducer folds the ints.
  // Typed channels route lists to workers and ints to the reducer.
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  Machine M(P.Checked);
  M.spawn(sym(P, "producer_lists"), {Value::intVal(6), Value::intVal(4)});
  M.spawn(sym(P, "worker"), {Value::intVal(3)});
  M.spawn(sym(P, "worker"), {Value::intVal(3)});
  M.spawn(sym(P, "reducer"), {Value::intVal(6)});
  Expected<MachineSummary> R = M.run(11);
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  // Each list holds 0..3 (sum 6); six lists.
  EXPECT_EQ(R->ThreadResults[3], Value::intVal(36));
}

TEST(Concurrency, MapReduceOnRealThreads) {
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  ParallelExec Exec(P.Checked);
  Exec.spawn(sym(P, "producer_lists"), {Value::intVal(40),
                                        Value::intVal(8)});
  Exec.spawn(sym(P, "worker"), {Value::intVal(20)});
  Exec.spawn(sym(P, "worker"), {Value::intVal(20)});
  Exec.spawn(sym(P, "reducer"), {Value::intVal(40)});
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  // Each list: 0..7 (sum 28); forty lists.
  EXPECT_EQ((*R)[3], Value::intVal(40 * 28));
}

TEST(Concurrency, CyclicDllCrossesThreads) {
  // A circular doubly linked list (cycles and all) moves between
  // reservations: the iso root dominates the whole ring, so send
  // transfers it wholesale.
  std::string Source = std::string(programs::DllSuite) + R"prog(
def maker(n : int) : unit {
  let l = dll_new();
  let i = 0;
  while (i < n) {
    let p = new data(i) in { push_front(l, p) };
    i = i + 1
  };
  send(l)
}
def taker() : int {
  let l = recv<dll>();
  let removed = let some(d) = remove_tail(l) in { d.value } else { -1 };
  removed * 1000 + length(l)
}
)prog";
  auto Built = mustBuild(Source);
  const Pipeline &P = Built->P;
  Machine M(P.Checked);
  M.spawn(sym(P, "maker"), {Value::intVal(4)});
  M.spawn(sym(P, "taker"), {});
  Expected<MachineSummary> R = M.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  // push_front 0..3 gives 3,2,1,0; tail = 0; remaining length 3.
  EXPECT_EQ(R->ThreadResults[1], Value::intVal(0 * 1000 + 3));
  EXPECT_EQ(checkReservationsDisjoint(M), std::nullopt);
}

TEST(Concurrency, ParallelExecutorMatchesAbstractMachine) {
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  ParallelExec Exec(P.Checked);
  Exec.spawn(sym(P, "producer_lists"), {Value::intVal(8),
                                        Value::intVal(16)});
  Exec.spawn(sym(P, "consumer_lists"), {Value::intVal(8)});
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  // Each list holds 0..15 (sum 120); eight lists.
  EXPECT_EQ((*R)[1], Value::intVal(8 * 120));
}

//===----------------------------------------------------------------------===//
// Shutdown protocol
//===----------------------------------------------------------------------===//

TEST(Concurrency, ProducerFinishesWhileConsumerStillBlocked) {
  // Deadlock regression: the producer sends 5 items and exits while the
  // consumer wants 100. Channel closure (last potential sender gone) must
  // cancel the consumer cleanly instead of hanging run() forever or
  // reporting a spurious "channel closed while receiving" error. The
  // watchdog is only a safety net so a protocol bug fails the test
  // instead of hanging it.
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  ParallelExecOptions O;
  O.WatchdogMillis = 10'000;
  ParallelExec Exec(P.Checked, O);
  Exec.spawn(sym(P, "producer"), {Value::intVal(5)});
  Exec.spawn(sym(P, "consumer"), {Value::intVal(100)});
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  const RuntimeMetrics &M = Exec.metrics();
  EXPECT_EQ(M.ThreadsFinished, 1u);
  EXPECT_EQ(M.ThreadsCancelled, 1u);
  EXPECT_EQ(M.ThreadsErrored, 0u);
  EXPECT_EQ(M.ChannelSends, 5u);
  EXPECT_EQ(M.ChannelRecvs, 5u); // all sent items were still consumed
  EXPECT_EQ(M.WatchdogFired, 0u);
}

TEST(Concurrency, ConsumerWithNoProducerIsCancelledNotDeadlocked) {
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  ParallelExecOptions O;
  O.WatchdogMillis = 10'000;
  ParallelExec Exec(P.Checked, O);
  Exec.spawn(sym(P, "consumer"), {Value::intVal(1)});
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ(Exec.metrics().ThreadsCancelled, 1u);
  EXPECT_EQ(Exec.metrics().WatchdogFired, 0u);
}

TEST(Concurrency, LateCreatedChannelsAreBornClosed) {
  // The old closeAll() raced channel creation: a channel materialized
  // after the close stayed open forever. Channels created after shutdown
  // must be born in the shutdown state.
  ChannelSet S;
  S.registerThreads(1);
  S.threadFinished(); // quiescent: clean shutdown
  Value V;
  ChannelWaiter W;
  EXPECT_EQ(S.channelFor(Type::intTy()).recvOrPark(V, W),
            RecvAttempt::Closed);

  ChannelSet S2;
  S2.abortAll();
  EXPECT_EQ(S2.channelFor(Type::boolTy()).recvOrPark(V, W),
            RecvAttempt::Aborted);
}

TEST(Concurrency, ClosedChannelDrainsBeforeStopping) {
  // Closed is a *clean* state: what was sent before the close is still
  // delivered; only then do receivers observe Closed.
  ChannelSet S;
  S.registerThreads(1); // one sender keeps the set from quiescing
  ValueChannel &C = S.channelFor(Type::intTy());
  C.send(Value::intVal(1));
  C.send(Value::intVal(2));
  S.closeAll();
  Value V;
  ChannelWaiter W;
  ASSERT_EQ(C.recvOrPark(V, W), RecvAttempt::Got);
  EXPECT_EQ(V, Value::intVal(1));
  ASSERT_EQ(C.recvOrPark(V, W), RecvAttempt::Got);
  EXPECT_EQ(V, Value::intVal(2));
  EXPECT_EQ(C.recvOrPark(V, W), RecvAttempt::Closed);
}

TEST(Concurrency, AbortedChannelDiscardsQueuedValues) {
  ChannelSet S;
  S.registerThreads(1);
  ValueChannel &C = S.channelFor(Type::intTy());
  C.send(Value::intVal(1));
  S.abortAll();
  Value V;
  ChannelWaiter W;
  EXPECT_EQ(C.recvOrPark(V, W), RecvAttempt::Aborted);
  // Sends into an aborted run are dropped, not queued.
  C.send(Value::intVal(2));
  EXPECT_EQ(C.sizeApprox(), 0u);
  RuntimeMetrics M;
  S.collectMetrics(M);
  EXPECT_EQ(M.ChannelDroppedValues, 1u);
}

TEST(Concurrency, WatchdogAbortsSpinningRun) {
  // An infinite loop never blocks, so channel closure cannot help; the
  // watchdog must turn the hang into a diagnostic.
  std::string Source = std::string(programs::MessagePassing) + R"prog(
def spin() : int {
  let i = 0;
  while (i < 1) { i = i - 1 };
  i
}
)prog";
  auto Built = mustBuild(Source);
  const Pipeline &P = Built->P;
  ParallelExecOptions O;
  O.WatchdogMillis = 100;
  ParallelExec Exec(P.Checked, O);
  Exec.spawn(sym(P, "spin"));
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().Message.find("watchdog"), std::string::npos);
  EXPECT_EQ(Exec.metrics().WatchdogFired, 1u);
  EXPECT_EQ(Exec.metrics().ThreadsCancelled, 1u);
}

TEST(Concurrency, FailedThreadErrorsAllPropagate) {
  // A failing thread aborts the run; blocked peers are cancelled, not
  // blamed. Every *real* error is reported (the old executor kept only
  // the first slot's).
  std::string Source = std::string(programs::MessagePassing) + R"prog(
def crash(a : int) : int { 10 / a }
)prog";
  auto Built = mustBuild(Source);
  const Pipeline &P = Built->P;
  ParallelExec Exec(P.Checked);
  Exec.spawn(sym(P, "crash"), {Value::intVal(0)});
  Exec.spawn(sym(P, "consumer"), {Value::intVal(1)}); // blocks on recv
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().Message.find("division by zero"),
            std::string::npos);
  // The blocked consumer was aborted, not mis-reported as an error.
  EXPECT_EQ(R.error().Message.find("channel closed"), std::string::npos);
  EXPECT_EQ(Exec.metrics().ThreadsErrored, 1u);
  EXPECT_EQ(Exec.metrics().ThreadsCancelled, 1u);
}

TEST(Concurrency, RunIsSingleUse) {
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  ParallelExec Exec(P.Checked);
  Exec.spawn(sym(P, "producer"), {Value::intVal(1)});
  Exec.spawn(sym(P, "consumer"), {Value::intVal(1)});
  ASSERT_TRUE(Exec.run().hasValue());
  Expected<std::vector<Value>> Again = Exec.run();
  ASSERT_FALSE(Again.hasValue());
  EXPECT_NE(Again.error().Message.find("at most once"),
            std::string::npos);
}

TEST(Concurrency, MetricsAggregateAcrossThreads) {
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  ParallelExec Exec(P.Checked);
  Exec.spawn(sym(P, "producer"), {Value::intVal(10)});
  Exec.spawn(sym(P, "consumer"), {Value::intVal(10)});
  ASSERT_TRUE(Exec.run().hasValue());
  const RuntimeMetrics &M = Exec.metrics();
  EXPECT_EQ(M.ThreadsSpawned, 2u);
  EXPECT_EQ(M.ThreadsFinished, 2u);
  EXPECT_EQ(M.Sends, 10u);
  EXPECT_EQ(M.Recvs, 10u);
  EXPECT_EQ(M.ChannelSends, 10u);
  EXPECT_EQ(M.ChannelRecvs, 10u);
  EXPECT_EQ(M.Allocations, 10u); // one `data` per item
  EXPECT_EQ(M.HeapObjects, 10u);
  EXPECT_GT(M.Steps, 0u);
  EXPECT_GE(M.ChannelPeakDepth, 1u);
  // The same counters flow through the JSON rendering.
  std::string Json = M.toJson();
  EXPECT_NE(Json.find("\"sends\": 10"), std::string::npos);
  EXPECT_NE(Json.find("\"threads_finished\": 2"), std::string::npos);
}

TEST(Concurrency, ParallelManyThreads) {
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  ParallelExec Exec(P.Checked);
  const int Producers = 4;
  const int PerProducer = 25;
  for (int I = 0; I < Producers; ++I)
    Exec.spawn(sym(P, "producer"), {Value::intVal(PerProducer)});
  // One consumer drains everything.
  Exec.spawn(sym(P, "consumer"),
             {Value::intVal(Producers * PerProducer)});
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  // Each producer sends 0..24 (sum 300).
  EXPECT_EQ((*R)[Producers], Value::intVal(Producers * 300));
}

} // namespace

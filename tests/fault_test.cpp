//===- tests/fault_test.cpp -----------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// Deterministic fault injection, structured runtime faults, and supervised
// recovery. Units cover the spec parser and trigger semantics, the
// allocation-free query path, the structured trap/unwind frontier, the
// supervisor's restart/backoff/escalation policy, the two-stage watchdog,
// and an 8-seed chaos sweep asserting no hang, no crash, and
// result-identical recovery whenever every fault was absorbed.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "concurrency/ParallelExec.h"
#include "runtime/RuntimeFault.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

using namespace fearless;
using namespace fearless::testutil;

//===----------------------------------------------------------------------===//
// Allocation counting (same idiom as trace_test.cpp): global operator
// new/delete instrumented so tests can assert a code path allocates
// nothing.
//===----------------------------------------------------------------------===//

namespace {
std::atomic<uint64_t> GHeapAllocs{0};
uint64_t heapAllocs() {
  return GHeapAllocs.load(std::memory_order_relaxed);
}
} // namespace

void *operator new(std::size_t Size) {
  GHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) {
  GHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

namespace {

//===----------------------------------------------------------------------===//
// Spec parsing
//===----------------------------------------------------------------------===//

TEST(FaultSpec, ParsesTriggersAndSeed) {
  Expected<FaultPlan> P = parseFaultSpec(
      "chan.send=nth:3,heap.alloc=prob:0.25,sched.step=every:7,seed=42");
  ASSERT_TRUE(P.hasValue()) << (P ? "" : P.error().render());
  EXPECT_EQ(P->Seed, 42u);
  const FaultTrigger &Send =
      P->Triggers[static_cast<size_t>(FaultPoint::ChanSend)];
  EXPECT_EQ(Send.TriggerKind, FaultTrigger::Kind::Nth);
  EXPECT_EQ(Send.N, 3u);
  const FaultTrigger &Alloc =
      P->Triggers[static_cast<size_t>(FaultPoint::HeapAlloc)];
  EXPECT_EQ(Alloc.TriggerKind, FaultTrigger::Kind::Probability);
  EXPECT_DOUBLE_EQ(Alloc.Probability, 0.25);
  const FaultTrigger &Step =
      P->Triggers[static_cast<size_t>(FaultPoint::SchedStep)];
  EXPECT_EQ(Step.TriggerKind, FaultTrigger::Kind::EveryK);
  EXPECT_EQ(Step.N, 7u);
  // Unmentioned points stay unarmed.
  EXPECT_EQ(P->Triggers[static_cast<size_t>(FaultPoint::ChanRecv)]
                .TriggerKind,
            FaultTrigger::Kind::Never);
  EXPECT_FALSE(P->empty());
}

TEST(FaultSpec, DiagnosesMalformedSpecs) {
  EXPECT_FALSE(parseFaultSpec("bogus.point=nth:1").hasValue());
  EXPECT_FALSE(parseFaultSpec("chan.send").hasValue());
  EXPECT_FALSE(parseFaultSpec("chan.send=sometimes:1").hasValue());
  EXPECT_FALSE(parseFaultSpec("chan.send=nth:0").hasValue());
  EXPECT_FALSE(parseFaultSpec("chan.send=prob:1.5").hasValue());
  EXPECT_FALSE(parseFaultSpec("chan.send=prob:abc").hasValue());
  EXPECT_FALSE(parseFaultSpec("seed=notanumber").hasValue());
  // Empty entries (trailing commas, empty spec) are tolerated: they
  // parse to an empty plan, not an error.
  Expected<FaultPlan> Empty = parseFaultSpec(",");
  ASSERT_TRUE(Empty.hasValue());
  EXPECT_TRUE(Empty->empty());
}

TEST(FaultSpec, PointNamesRoundTrip) {
  for (size_t I = 0; I < NumFaultPoints; ++I) {
    FaultPoint P = static_cast<FaultPoint>(I);
    FaultPoint Back;
    ASSERT_TRUE(faultPointByName(faultPointName(P), Back))
        << faultPointName(P);
    EXPECT_EQ(Back, P);
  }
  FaultPoint Dummy;
  EXPECT_FALSE(faultPointByName("chan.sned", Dummy));
}

TEST(FaultSpec, FromEnvHonorsAndDiagnosesVariable) {
  ::setenv("FEARLESS_FAULTS", "thread.start=nth:2,seed=9", 1);
  std::string Error;
  std::unique_ptr<FaultInjector> FI = FaultInjector::fromEnv(&Error);
  ASSERT_NE(FI, nullptr) << Error;
  EXPECT_EQ(FI->plan().Seed, 9u);

  ::setenv("FEARLESS_FAULTS", "nope=nth:1", 1);
  FI = FaultInjector::fromEnv(&Error);
  EXPECT_EQ(FI, nullptr);
  EXPECT_FALSE(Error.empty());

  ::unsetenv("FEARLESS_FAULTS");
  Error.clear();
  EXPECT_EQ(FaultInjector::fromEnv(&Error), nullptr);
  EXPECT_TRUE(Error.empty());
}

//===----------------------------------------------------------------------===//
// Trigger semantics
//===----------------------------------------------------------------------===//

TEST(FaultInjectorTest, NthFiresExactlyOnce) {
  FaultPlan Plan;
  Plan.Triggers[static_cast<size_t>(FaultPoint::ChanSend)] =
      FaultTrigger{FaultTrigger::Kind::Nth, 3, 0};
  FaultInjector FI(Plan);
  int Fired = 0;
  for (int I = 0; I < 10; ++I)
    if (FI.shouldFire(FaultPoint::ChanSend)) {
      ++Fired;
      EXPECT_EQ(FI.occurrences(FaultPoint::ChanSend), 3u);
    }
  EXPECT_EQ(Fired, 1);
  EXPECT_EQ(FI.fired(FaultPoint::ChanSend), 1u);
  EXPECT_EQ(FI.occurrences(FaultPoint::ChanSend), 10u);
  EXPECT_EQ(FI.totalFired(), 1u);
}

TEST(FaultInjectorTest, EveryKFiresPeriodically) {
  FaultPlan Plan;
  Plan.Triggers[static_cast<size_t>(FaultPoint::HeapAlloc)] =
      FaultTrigger{FaultTrigger::Kind::EveryK, 4, 0};
  FaultInjector FI(Plan);
  int Fired = 0;
  for (int I = 0; I < 20; ++I)
    Fired += FI.shouldFire(FaultPoint::HeapAlloc) ? 1 : 0;
  EXPECT_EQ(Fired, 5);
}

TEST(FaultInjectorTest, ProbabilityIsSeededAndDeterministic) {
  FaultPlan Plan;
  Plan.Seed = 1234;
  Plan.Triggers[static_cast<size_t>(FaultPoint::SchedStep)] =
      FaultTrigger{FaultTrigger::Kind::Probability, 0, 0.5};
  auto Sequence = [](const FaultPlan &P) {
    FaultInjector FI(P);
    std::vector<bool> Out;
    for (int I = 0; I < 256; ++I)
      Out.push_back(FI.shouldFire(FaultPoint::SchedStep));
    return Out;
  };
  std::vector<bool> A = Sequence(Plan);
  std::vector<bool> B = Sequence(Plan);
  EXPECT_EQ(A, B); // same plan, same schedule
  FaultPlan Other = Plan;
  Other.Seed = 99;
  EXPECT_NE(A, Sequence(Other)); // seed actually feeds the decision
  // p = 0.5 over 256 draws: a grossly lopsided count means the hash is
  // broken, not unlucky.
  size_t Fired = 0;
  for (bool F : A)
    Fired += F;
  EXPECT_GT(Fired, 64u);
  EXPECT_LT(Fired, 192u);
}

TEST(FaultInjectorTest, RestoredCountersRepeatTheDecisions) {
  // Restoring saved counters rewinds the occurrence index, so the
  // decisions after the save point come out again, fired totals
  // included.
  FaultPlan Plan;
  Plan.Triggers[static_cast<size_t>(FaultPoint::ChanSend)] =
      FaultTrigger{FaultTrigger::Kind::Nth, 5, 0};
  Plan.Triggers[static_cast<size_t>(FaultPoint::SchedStep)] =
      FaultTrigger{FaultTrigger::Kind::EveryK, 2, 0};
  FaultInjector FI(Plan);
  for (int I = 0; I < 3; ++I) {
    (void)FI.shouldFire(FaultPoint::ChanSend);
    (void)FI.shouldFire(FaultPoint::SchedStep);
  }
  FaultInjector::Counters Saved;
  FI.saveCounters(Saved);
  auto Decisions = [&FI] {
    std::vector<bool> Out;
    for (int I = 0; I < 4; ++I) {
      Out.push_back(FI.shouldFire(FaultPoint::ChanSend));
      Out.push_back(FI.shouldFire(FaultPoint::SchedStep));
    }
    return Out;
  };
  std::vector<bool> First = Decisions();
  uint64_t FiredAfter = FI.totalFired();
  FI.restoreCounters(Saved);
  EXPECT_EQ(FI.occurrences(FaultPoint::ChanSend), 3u);
  EXPECT_EQ(FI.fired(FaultPoint::SchedStep), 1u);
  EXPECT_EQ(Decisions(), First);
  EXPECT_EQ(FI.totalFired(), FiredAfter);
}

TEST(FaultInjectorTest, QueryPathIsAllocationFree) {
  FaultPlan Plan;
  Plan.Seed = 7;
  Plan.Triggers[static_cast<size_t>(FaultPoint::ChanSend)] =
      FaultTrigger{FaultTrigger::Kind::Nth, 1'000'000, 0};
  Plan.Triggers[static_cast<size_t>(FaultPoint::HeapAlloc)] =
      FaultTrigger{FaultTrigger::Kind::Probability, 0, 0.0};
  FaultInjector FI(Plan);
  uint64_t Before = heapAllocs();
  for (int I = 0; I < 10'000; ++I) {
    // Armed (counting) points and unarmed points both stay on the
    // no-allocation fast path; Trace.h discipline.
    (void)FI.shouldFire(FaultPoint::ChanSend);
    (void)FI.shouldFire(FaultPoint::HeapAlloc);
    (void)FI.shouldFire(FaultPoint::ChanRecv);
  }
  EXPECT_EQ(heapAllocs() - Before, 0u);
}

//===----------------------------------------------------------------------===//
// Structured runtime faults (the trap path)
//===----------------------------------------------------------------------===//

TEST(RuntimeFaultTest, RendersKindLocationAndThread) {
  RuntimeFault F;
  F.Kind = RuntimeFaultKind::InvalidFieldAccess;
  F.Location = Loc{17};
  F.Detail = 3;
  F.Thread = 2;
  std::string R = F.render();
  EXPECT_NE(R.find("invalid field access"), std::string::npos) << R;
  EXPECT_NE(R.find("17"), std::string::npos) << R;
  EXPECT_NE(R.find("thread 2"), std::string::npos) << R;
}

TEST(RuntimeFaultTest, ReleaseBuildThrowsTypedFaultOnBadHeapAccess) {
#ifndef NDEBUG
  GTEST_SKIP() << "debug builds keep the loud abort on memory-safety "
                  "traps";
#else
  auto Built = mustBuild(programs::SllSuite);
  const Pipeline &P = Built->P;
  Heap H(P.Checked.Structs);
  Loc L = H.allocate(sym(P, "data"));
  ASSERT_TRUE(L.isValid());
  // Out-of-range location.
  bool Caught = false;
  try {
    (void)H.get(Loc{L.Index + 100});
  } catch (const RuntimeFaultError &E) {
    Caught = true;
    EXPECT_EQ(E.Fault.Kind, RuntimeFaultKind::InvalidHeapAccess);
  }
  EXPECT_TRUE(Caught);
  // Out-of-range field index on a live object.
  Caught = false;
  try {
    (void)H.getField(L, 99);
  } catch (const RuntimeFaultError &E) {
    Caught = true;
    EXPECT_EQ(E.Fault.Kind, RuntimeFaultKind::InvalidFieldAccess);
    EXPECT_EQ(E.Fault.Detail, 99u);
  }
  EXPECT_TRUE(Caught);
#endif
}

//===----------------------------------------------------------------------===//
// Machine under injection: typed failure, no crash
//===----------------------------------------------------------------------===//

TEST(MachineFaults, InjectedSendFaultFailsRunWithTypedFault) {
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  FaultPlan Plan = *parseFaultSpec("chan.send=nth:3");
  FaultInjector FI(Plan);
  MachineOptions MO;
  MO.Faults = &FI;
  Machine M(P.Checked, MO);
  M.spawn(sym(P, "producer"), {Value::intVal(10)});
  M.spawn(sym(P, "consumer"), {Value::intVal(10)});
  Expected<MachineSummary> R = M.run();
  ASSERT_FALSE(R.hasValue());
  ASSERT_TRUE(M.lastFault().has_value());
  EXPECT_EQ(M.lastFault()->Kind, RuntimeFaultKind::Injected);
  EXPECT_EQ(M.lastFault()->Detail,
            static_cast<uint32_t>(FaultPoint::ChanSend));
  EXPECT_NE(R.error().Message.find("chan.send"), std::string::npos)
      << R.error().Message;
  EXPECT_EQ(M.metrics().FaultsInjected, 1u);
}

TEST(MachineFaults, InjectedSchedAndStartFaultsAreTyped) {
  for (const char *Spec : {"sched.step=nth:5", "thread.start=nth:1"}) {
    auto Built = mustBuild(programs::MessagePassing);
    const Pipeline &P = Built->P;
    FaultPlan Plan = *parseFaultSpec(Spec);
    FaultInjector FI(Plan);
    MachineOptions MO;
    MO.Faults = &FI;
    Machine M(P.Checked, MO);
    M.spawn(sym(P, "producer"), {Value::intVal(4)});
    M.spawn(sym(P, "consumer"), {Value::intVal(4)});
    Expected<MachineSummary> R = M.run();
    ASSERT_FALSE(R.hasValue()) << Spec;
    ASSERT_TRUE(M.lastFault().has_value()) << Spec;
    EXPECT_EQ(M.lastFault()->Kind, RuntimeFaultKind::Injected) << Spec;
  }
}

TEST(MachineFaults, DisabledInjectorChangesNothing) {
  // A run with no injector and a run with an all-Never plan agree with
  // the plain baseline — the disabled path really is inert.
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  auto Run = [&](FaultInjector *FI) {
    MachineOptions MO;
    MO.Faults = FI;
    Machine M(P.Checked, MO);
    M.spawn(sym(P, "producer"), {Value::intVal(10)});
    M.spawn(sym(P, "consumer"), {Value::intVal(10)});
    Expected<MachineSummary> R = M.run(3);
    EXPECT_TRUE(R.hasValue());
    return R->ThreadResults[1];
  };
  FaultPlan Empty;
  FaultInjector Inert(Empty);
  EXPECT_EQ(Run(nullptr), Value::intVal(45));
  EXPECT_EQ(Run(&Inert), Value::intVal(45));
  EXPECT_EQ(Inert.totalFired(), 0u);
}

TEST(MachineFaults, TracedRunMatchesUntracedUnderFaults) {
  // Tracing must not perturb the fault schedule: same plan, same machine
  // seed — identical outcome and identical fault, traced or not.
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  auto Run = [&](TraceSession *Trace, RuntimeFault &FaultOut) {
    FaultPlan Plan = *parseFaultSpec("chan.recv=nth:2,seed=5");
    FaultInjector FI(Plan);
    MachineOptions MO;
    MO.Faults = &FI;
    MO.Trace = Trace;
    Machine M(P.Checked, MO);
    M.spawn(sym(P, "producer"), {Value::intVal(6)});
    M.spawn(sym(P, "consumer"), {Value::intVal(6)});
    Expected<MachineSummary> R = M.run(11);
    EXPECT_FALSE(R.hasValue());
    EXPECT_TRUE(M.lastFault().has_value());
    FaultOut = *M.lastFault();
    return R ? "" : R.error().Message;
  };
  TraceSession Trace;
  RuntimeFault Traced, Untraced;
  std::string MsgTraced = Run(&Trace, Traced);
  std::string MsgUntraced = Run(nullptr, Untraced);
  EXPECT_EQ(MsgTraced, MsgUntraced);
  EXPECT_EQ(Traced.Kind, Untraced.Kind);
  EXPECT_EQ(Traced.Thread, Untraced.Thread);
  // The trapped fault is visible in the trace.
  EXPECT_NE(Trace.toChromeJson().find("fault.trapped"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Supervised recovery (ParallelExec)
//===----------------------------------------------------------------------===//

TEST(Supervision, PlainProgramErrorsStayFailFast) {
  // Division by zero is a program bug, not a fault: no restart even with
  // a budget (the pre-supervision fail-fast contract).
  std::string Source = std::string(programs::MessagePassing) + R"prog(
def crash(a : int) : int { 10 / a }
)prog";
  auto Built = mustBuild(Source);
  const Pipeline &P = Built->P;
  ParallelExecOptions O;
  O.MaxRestarts = 5;
  ParallelExec Exec(P.Checked, O);
  Exec.spawn(sym(P, "crash"), {Value::intVal(0)});
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().Message.find("division by zero"),
            std::string::npos);
  EXPECT_EQ(Exec.metrics().ThreadsRestarted, 0u);
  EXPECT_EQ(Exec.metrics().FaultsEscalated, 0u);
}

TEST(Supervision, RestartEmitsTraceInstantsAndBackoffIsDeterministic) {
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  auto Run = [&](uint64_t &BackoffOut) {
    FaultPlan Plan = *parseFaultSpec("thread.start=nth:1");
    FaultInjector FI(Plan);
    TraceSession Trace;
    ParallelExecOptions O;
    O.Faults = &FI;
    O.MaxRestarts = 2;
    O.RestartBackoffMillis = 1;
    O.RestartBackoffCapMillis = 4;
    O.RestartSeed = 77;
    // One worker starts the threads in spawn order, so thread.start's
    // first occurrence — and with it the restarted thread whose index
    // seeds the jitter — is the same in both runs. With more workers
    // the OS picks which start comes first (FaultInjector.h).
    O.NumWorkers = 1;
    O.Trace = &Trace;
    O.WatchdogMillis = 10'000;
    ParallelExec Exec(P.Checked, O);
    Exec.spawn(sym(P, "producer"), {Value::intVal(3)});
    Exec.spawn(sym(P, "consumer"), {Value::intVal(3)});
    Expected<std::vector<Value>> R = Exec.run();
    EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
    BackoffOut = Exec.metrics().RestartBackoffMillis;
    return Trace.toChromeJson();
  };
  uint64_t BackoffA = 0, BackoffB = 0;
  std::string Json = Run(BackoffA);
  EXPECT_NE(Json.find("thread.restart"), std::string::npos);
  (void)Run(BackoffB);
  // Same seed, same thread, same attempt: the jittered backoff is a
  // deterministic function, not a random draw.
  EXPECT_EQ(BackoffA, BackoffB);
  EXPECT_GE(BackoffA, 1u);
}

//===----------------------------------------------------------------------===//
// Watchdog escalation
//===----------------------------------------------------------------------===//

TEST(Watchdog, FiresWhileAThreadIsBlockedMidRecv) {
  // A spinner burns the budget while a consumer sits blocked in recv:
  // the watchdog must fire, soft-cancel (waking the blocked receiver via
  // channel closure), then hard-abort the spinner. Both the metric and
  // the trace instant record the firing.
  std::string Source = std::string(programs::MessagePassing) + R"prog(
def spin() : int {
  let i = 0;
  while (i < 1) { i = i - 1 };
  i
}
)prog";
  auto Built = mustBuild(Source);
  const Pipeline &P = Built->P;
  TraceSession Trace;
  ParallelExecOptions O;
  O.WatchdogMillis = 100;
  O.WatchdogGraceMillis = 50;
  O.Trace = &Trace;
  ParallelExec Exec(P.Checked, O);
  Exec.spawn(sym(P, "spin"));
  Exec.spawn(sym(P, "consumer"), {Value::intVal(1)}); // blocked in recv
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().Message.find("watchdog"), std::string::npos);
  EXPECT_EQ(Exec.metrics().WatchdogFired, 1u);
  EXPECT_EQ(Exec.metrics().ThreadsCancelled, 2u);
  std::string Json = Trace.toChromeJson();
  EXPECT_NE(Json.find("watchdog.fired"), std::string::npos);
  EXPECT_NE(Json.find("watchdog.soft_cancel"), std::string::npos);
  EXPECT_NE(Json.find("watchdog.hard_abort"), std::string::npos);
}

TEST(Watchdog, DoesNotFireJustUnderBudget) {
  // The same pipeline workload finishing well inside a generous budget:
  // no firing, no watchdog instants in the trace.
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  TraceSession Trace;
  ParallelExecOptions O;
  O.WatchdogMillis = 30'000;
  O.Trace = &Trace;
  ParallelExec Exec(P.Checked, O);
  Exec.spawn(sym(P, "producer"), {Value::intVal(20)});
  Exec.spawn(sym(P, "consumer"), {Value::intVal(20)});
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ(Exec.metrics().WatchdogFired, 0u);
  EXPECT_EQ(Trace.toChromeJson().find("watchdog.fired"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Shutdown regression: channels born after abortAll
//===----------------------------------------------------------------------===//

TEST(Shutdown, ChannelCreatedAfterAbortIsBornAborted) {
  // Regression: a channel materialized after abortAll() must be born in
  // the aborted state — recv returns at once (no park), send drops.
  ChannelSet S;
  S.registerThreads(2);
  S.abortAll();
  ValueChannel &C = S.channelFor(Type::intTy()); // created post-abort
  Value V;
  ChannelWaiter W;
  EXPECT_EQ(C.recvOrPark(V, W), RecvAttempt::Aborted); // never parks
  C.send(Value::intVal(1));                             // dropped
  EXPECT_EQ(C.sizeApprox(), 0u);
  EXPECT_EQ(C.recvOrPark(V, W), RecvAttempt::Aborted);
}

//===----------------------------------------------------------------------===//
// Chaos sweep: seeds × fault plans, no hangs, no crashes, recovery is
// result-identical
//===----------------------------------------------------------------------===//

TEST(Chaos, SeededSweepNeverHangsAndRecoveredRunsAreExact) {
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  constexpr int64_t Count = 10;
  const Value Expected0 = Value::unitVal();
  const Value Expected1 = Value::intVal(45); // sum 0..9
  int Recovered = 0, CleanNoFault = 0, Aborted = 0;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    // Mixed plan per seed: always-retryable start faults, plus a step
    // fault whose position (and so its retryability) shifts with the
    // seed, plus a seeded low-probability allocation fault.
    std::string Spec = "thread.start=prob:0.3,sched.step=nth:" +
                       std::to_string(Seed * 9) +
                       ",heap.alloc=prob:0.01,seed=" +
                       std::to_string(Seed);
    Expected<FaultPlan> Plan = parseFaultSpec(Spec);
    ASSERT_TRUE(Plan.hasValue()) << Spec;
    FaultInjector FI(*Plan);
    ParallelExecOptions O;
    O.Faults = &FI;
    O.MaxRestarts = 4;
    O.RestartBackoffMillis = 1;
    O.RestartBackoffCapMillis = 4;
    O.RestartSeed = Seed;
    // Safety net only: turns a protocol hang into a test failure.
    O.WatchdogMillis = 30'000;
    ParallelExec Exec(P.Checked, O);
    Exec.spawn(sym(P, "producer"), {Value::intVal(Count)});
    Exec.spawn(sym(P, "consumer"), {Value::intVal(Count)});
    Expected<std::vector<Value>> R = Exec.run();
    const RuntimeMetrics &M = Exec.metrics();
    // No hang: the watchdog never had to step in.
    EXPECT_EQ(M.WatchdogFired, 0u) << "seed " << Seed;
    // Every thread is accounted for: finished, cancelled, or errored.
    EXPECT_EQ(M.ThreadsFinished + M.ThreadsCancelled + M.ThreadsErrored,
              2u)
        << "seed " << Seed;
    if (R.hasValue()) {
      // A successful run absorbed every fault (or saw none): its results
      // must be *exactly* the fault-free results, and the channels must
      // have fully drained.
      EXPECT_EQ(M.FaultsEscalated, 0u) << "seed " << Seed;
      EXPECT_EQ((*R)[0], Expected0) << "seed " << Seed;
      EXPECT_EQ((*R)[1], Expected1) << "seed " << Seed;
      EXPECT_EQ(M.ChannelSends, M.ChannelRecvs) << "seed " << Seed;
      if (M.ThreadsRestarted > 0)
        ++Recovered;
      else
        ++CleanNoFault;
    } else {
      // An aborted run must say why, with at least one escalated or
      // directly-fatal fault behind it.
      EXPECT_FALSE(R.error().Message.empty()) << "seed " << Seed;
      EXPECT_GE(M.FaultsInjected, 1u) << "seed " << Seed;
      ++Aborted;
    }
  }
  // The sweep must actually exercise recovery, not just clean runs or
  // pure aborts; with these plans several seeds recover.
  EXPECT_GE(Recovered + CleanNoFault + Aborted, 8);
  EXPECT_GE(Recovered, 1) << "recovered=" << Recovered
                          << " clean=" << CleanNoFault
                          << " aborted=" << Aborted;
}

} // namespace

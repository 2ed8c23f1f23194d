//===- tests/mc_test.cpp --------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// The stateless model checker (src/mc/): exhaustive exploration of small
// schedule spaces, DPOR-vs-naive agreement, counterexample schedules
// that replay deterministically (including under fault injection),
// checkpointed backtracking that explores exactly what replaying each
// prefix did, and the schedule file format's corruption diagnostics.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "driver/CompilePipeline.h"
#include "mc/Dpor.h"
#include "mc/Replay.h"
#include "runtime/Invariants.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace fearless;
using namespace fearless::testutil;

namespace {

/// Two racing one-shot senders into a non-commutative fold: the result
/// depends on arrival order, which the confluence check must flag.
constexpr const char *RacyFold = R"(
struct item { value : int; }

def feed(v : int) : unit {
  let d = new item(v) in { send(d) }
}

def folder(count : int) : int {
  let total = 0;
  let i = 0;
  while (i < count) {
    let d = recv<item>() in {
      total = total * 10 + d.value
    };
    i = i + 1
  };
  total
}
)";

mc::MachineFactory pipelineFactory(const Pipeline &P, int64_t Count) {
  return [&P, Count]() {
    auto M = std::make_unique<Machine>(P.Checked);
    M->spawn(sym(P, "producer"), {Value::intVal(Count)});
    M->spawn(sym(P, "consumer"), {Value::intVal(Count)});
    return M;
  };
}

//===----------------------------------------------------------------------===//
// Exhaustive exploration
//===----------------------------------------------------------------------===//

TEST(Mc, ExhaustiveProducerConsumerPipelineVerifiesClean) {
  // Replaces the old fixed-seed sweep: every schedule in the bounded
  // space, not twelve samples of it. The per-state §6 validator plus the
  // end-state result check run on each one.
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  mc::McOptions Opts;
  Opts.Validate = [&P](const Machine &M) -> std::optional<std::string> {
    if (auto Problem = checkReservationsDisjoint(M))
      return Problem;
    if (!(M.threads()[1].Result == Value::intVal(6)))
      return "consumer result is not 6";
    return std::nullopt;
  };
  Expected<mc::McReport> Rep =
      mc::explore(pipelineFactory(P, 4), Opts);
  ASSERT_TRUE(Rep.hasValue()) << (Rep ? "" : Rep.error().render());
  EXPECT_TRUE(Rep->Complete) << Rep->Clipped;
  EXPECT_FALSE(Rep->Counterexample.has_value())
      << Rep->Counterexample->Reason;
  EXPECT_GE(Rep->SchedulesExplored, 2u);
  EXPECT_EQ(Rep->StatesFingerprinted, Rep->SchedulesExplored);
}

TEST(Mc, DporExploresFarFewerSchedulesThanNaive) {
  // At interpreter step granularity the naive interleaving count is
  // combinatorial (every step of a 2-thread run can branch), so naive
  // DFS gets a schedule budget; DPOR exhausts the same space completely
  // within it. Both find no violations.
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  mc::McOptions Dpor;
  Dpor.MaxSchedules = 500;
  mc::McOptions Naive = Dpor;
  Naive.UseDpor = false;
  Expected<mc::McReport> RD = mc::explore(pipelineFactory(P, 2), Dpor);
  Expected<mc::McReport> RN = mc::explore(pipelineFactory(P, 2), Naive);
  ASSERT_TRUE(RD.hasValue()) << (RD ? "" : RD.error().render());
  ASSERT_TRUE(RN.hasValue()) << (RN ? "" : RN.error().render());
  EXPECT_FALSE(RD->Counterexample.has_value());
  EXPECT_FALSE(RN->Counterexample.has_value());
  // DPOR finishes the whole space; naive burns the entire budget without
  // finishing.
  EXPECT_TRUE(RD->Complete) << RD->Clipped;
  EXPECT_FALSE(RN->Complete);
  EXPECT_LT(RD->SchedulesExplored, RN->SchedulesExplored);
  // Naive mode carries no sleep sets, so nothing is counted as pruned.
  EXPECT_EQ(RN->SchedulesPruned, 0u);
}

TEST(Mc, PreemptionBoundRestrictsTheSpace) {
  // The bound applies to backtrack alternatives too, not only to a new
  // turn's first continuation: bound 0 must explore strictly fewer
  // schedules than the unbounded search, in DPOR and in naive mode, and
  // count what it left out as bound-clipped rather than pruned.
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  for (bool Dpor : {true, false}) {
    const char *Mode = Dpor ? "dpor" : "naive";
    mc::McOptions Unbounded;
    Unbounded.UseDpor = Dpor;
    Unbounded.MaxSchedules = 500;
    mc::McOptions Bounded = Unbounded;
    Bounded.PreemptionBound = 0;
    Expected<mc::McReport> RU =
        mc::explore(pipelineFactory(P, 2), Unbounded);
    Expected<mc::McReport> RB =
        mc::explore(pipelineFactory(P, 2), Bounded);
    ASSERT_TRUE(RU.hasValue()) << (RU ? "" : RU.error().render());
    ASSERT_TRUE(RB.hasValue()) << (RB ? "" : RB.error().render());
    EXPECT_FALSE(RB->Counterexample.has_value())
        << Mode << ": " << RB->Counterexample->Reason;
    EXPECT_TRUE(RB->Complete) << Mode << ": " << RB->Clipped;
    EXPECT_GE(RB->SchedulesExplored, 1u) << Mode;
    EXPECT_LT(RB->SchedulesExplored, RU->SchedulesExplored) << Mode;
    EXPECT_GT(RB->SchedulesBoundClipped, 0u) << Mode;
    EXPECT_EQ(RU->SchedulesBoundClipped, 0u) << Mode;
    if (!Dpor)
      EXPECT_EQ(RB->SchedulesPruned, 0u) << Mode;
  }
}

//===----------------------------------------------------------------------===//
// Counterexamples
//===----------------------------------------------------------------------===//

TEST(Mc, DeadlockYieldsCounterexampleWithBlockedDump) {
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  mc::MachineFactory Factory = [&P]() {
    auto M = std::make_unique<Machine>(P.Checked);
    M->spawn(sym(P, "consumer"), {Value::intVal(1)}); // no producer
    return M;
  };
  Expected<mc::McReport> Rep = mc::explore(Factory, mc::McOptions{});
  ASSERT_TRUE(Rep.hasValue()) << (Rep ? "" : Rep.error().render());
  ASSERT_TRUE(Rep->Counterexample.has_value());
  const mc::McCounterexample &CE = *Rep->Counterexample;
  EXPECT_NE(CE.Reason.find("deadlock"), std::string::npos) << CE.Reason;
  // Satellite: the per-thread blocked-state dump names the channel op
  // and the rendezvous type.
  EXPECT_NE(CE.Reason.find("blocked in recv<data>"), std::string::npos)
      << CE.Reason;

  // The schedule round-trips through the text format...
  Expected<mc::Schedule> Parsed = mc::Schedule::parse(CE.Sched.render());
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error().Message;
  EXPECT_EQ(Parsed->Choices, CE.Sched.Choices);

  // ...and replays to the same failure.
  std::unique_ptr<Machine> M = Factory();
  Expected<MachineSummary> R = mc::runSchedule(*M, *Parsed);
  ASSERT_FALSE(R.hasValue());
  EXPECT_EQ(R.error().Message, CE.Reason);
}

TEST(Mc, ScheduleDependentResultYieldsDivergenceCounterexample) {
  auto Built = mustBuild(RacyFold);
  const Pipeline &P = Built->P;
  mc::MachineFactory Factory = [&P]() {
    auto M = std::make_unique<Machine>(P.Checked);
    M->spawn(sym(P, "folder"), {Value::intVal(2)});
    M->spawn(sym(P, "feed"), {Value::intVal(1)});
    M->spawn(sym(P, "feed"), {Value::intVal(9)});
    return M;
  };
  Expected<mc::McReport> Rep = mc::explore(Factory, mc::McOptions{});
  ASSERT_TRUE(Rep.hasValue()) << (Rep ? "" : Rep.error().render());
  ASSERT_TRUE(Rep->Counterexample.has_value());
  const mc::McCounterexample &CE = *Rep->Counterexample;
  EXPECT_NE(CE.Reason.find("schedule-dependent result"),
            std::string::npos)
      << CE.Reason;

  // The divergent schedule replays cleanly and really does produce a
  // different fold than the baseline (first-explored) schedule.
  std::unique_ptr<Machine> MBase = Factory();
  ASSERT_TRUE(MBase->run(0).hasValue());
  std::unique_ptr<Machine> MDiv = Factory();
  Expected<MachineSummary> R = mc::runSchedule(*MDiv, CE.Sched);
  ASSERT_TRUE(R.hasValue()) << R.error().Message;
  EXPECT_NE(MBase->resultFingerprint(), MDiv->resultFingerprint());
}

TEST(Mc, StepValidatorFailureIsACounterexampleNotAnError) {
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  mc::MachineFactory Factory = [&P]() {
    MachineOptions MO;
    MO.StepValidator = [](const Machine &) {
      return std::optional<std::string>("synthetic invariant failure");
    };
    auto M = std::make_unique<Machine>(P.Checked, MO);
    M->spawn(sym(P, "producer"), {Value::intVal(1)});
    M->spawn(sym(P, "consumer"), {Value::intVal(1)});
    return M;
  };
  Expected<mc::McReport> Rep = mc::explore(Factory, mc::McOptions{});
  ASSERT_TRUE(Rep.hasValue()) << (Rep ? "" : Rep.error().render());
  ASSERT_TRUE(Rep->Counterexample.has_value());
  EXPECT_NE(
      Rep->Counterexample->Reason.find("synthetic invariant failure"),
      std::string::npos)
      << Rep->Counterexample->Reason;
}

//===----------------------------------------------------------------------===//
// Replay determinism
//===----------------------------------------------------------------------===//

TEST(Mc, RecordedScheduleReplaysBitIdenticalTwice) {
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  auto Fresh = [&P]() {
    auto M = std::make_unique<Machine>(P.Checked);
    M->spawn(sym(P, "producer"), {Value::intVal(5)});
    M->spawn(sym(P, "consumer"), {Value::intVal(5)});
    return M;
  };
  // Record seed 7's interleaving, then replay it twice from the parsed
  // text form: results, step counts, metrics, and fingerprints must all
  // be byte-identical.
  mc::Schedule Recorded;
  std::unique_ptr<Machine> M0 = Fresh();
  Expected<MachineSummary> R0 = mc::runRecording(*M0, 7, Recorded);
  ASSERT_TRUE(R0.hasValue()) << R0.error().Message;
  Expected<mc::Schedule> Reparsed =
      mc::Schedule::parse(Recorded.render());
  ASSERT_TRUE(Reparsed.hasValue()) << Reparsed.error().Message;

  std::unique_ptr<Machine> M1 = Fresh();
  std::unique_ptr<Machine> M2 = Fresh();
  Expected<MachineSummary> R1 = mc::runSchedule(*M1, *Reparsed);
  Expected<MachineSummary> R2 = mc::runSchedule(*M2, *Reparsed);
  ASSERT_TRUE(R1.hasValue()) << R1.error().Message;
  ASSERT_TRUE(R2.hasValue()) << R2.error().Message;
  EXPECT_EQ(R0->Steps, R1->Steps);
  EXPECT_EQ(R1->Steps, R2->Steps);
  ASSERT_EQ(R1->ThreadResults.size(), R2->ThreadResults.size());
  for (size_t I = 0; I < R1->ThreadResults.size(); ++I) {
    EXPECT_TRUE(R0->ThreadResults[I] == R1->ThreadResults[I]);
    EXPECT_TRUE(R1->ThreadResults[I] == R2->ThreadResults[I]);
  }
  EXPECT_EQ(M1->metrics().toJson(), M2->metrics().toJson());
  EXPECT_EQ(M0->metrics().toJson(), M1->metrics().toJson());
  EXPECT_EQ(M1->resultFingerprint(), M2->resultFingerprint());
}

TEST(Mc, ReplayComposesWithFaultInjection) {
  // The same schedule plus the same fault plan (fresh injector each run
  // — its occurrence counters are run-local state) reproduces the same
  // injected failure, bit for bit.
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  Expected<FaultPlan> Plan = parseFaultSpec("chan.send=nth:2");
  ASSERT_TRUE(Plan.hasValue());
  auto Fresh = [&](FaultInjector &FI) {
    MachineOptions MO;
    MO.Faults = &FI;
    auto M = std::make_unique<Machine>(P.Checked, MO);
    M->spawn(sym(P, "producer"), {Value::intVal(3)});
    M->spawn(sym(P, "consumer"), {Value::intVal(3)});
    return M;
  };
  mc::Schedule Recorded;
  FaultInjector FI0(*Plan);
  std::unique_ptr<Machine> M0 = Fresh(FI0);
  Expected<MachineSummary> R0 = mc::runRecording(*M0, 3, Recorded);
  ASSERT_FALSE(R0.hasValue()); // the injected fault killed the run
  ASSERT_TRUE(M0->lastFault().has_value());

  FaultInjector FI1(*Plan), FI2(*Plan);
  std::unique_ptr<Machine> M1 = Fresh(FI1);
  std::unique_ptr<Machine> M2 = Fresh(FI2);
  Expected<MachineSummary> R1 = mc::runSchedule(*M1, Recorded);
  Expected<MachineSummary> R2 = mc::runSchedule(*M2, Recorded);
  ASSERT_FALSE(R1.hasValue());
  ASSERT_FALSE(R2.hasValue());
  EXPECT_EQ(R0.error().Message, R1.error().Message);
  EXPECT_EQ(R1.error().Message, R2.error().Message);
  EXPECT_EQ(M1->metrics().toJson(), M2->metrics().toJson());
}

TEST(Mc, FaultOutcomesAreAllowedNotCounterexamples) {
  // mc composed with --faults explores the interleavings of the fault
  // pattern; the injected fault itself must not read as a violation, and
  // divergence checking is the caller's job to disable.
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  FaultPlan Plan = *parseFaultSpec("chan.send=nth:1");
  std::unique_ptr<FaultInjector> Slot;
  mc::MachineFactory Factory = [&]() {
    Slot = std::make_unique<FaultInjector>(Plan);
    MachineOptions MO;
    MO.Faults = Slot.get();
    auto M = std::make_unique<Machine>(P.Checked, MO);
    M->spawn(sym(P, "producer"), {Value::intVal(2)});
    M->spawn(sym(P, "consumer"), {Value::intVal(2)});
    return M;
  };
  mc::McOptions Opts;
  Opts.CheckDivergence = false;
  Expected<mc::McReport> Rep = mc::explore(Factory, Opts);
  ASSERT_TRUE(Rep.hasValue()) << (Rep ? "" : Rep.error().render());
  EXPECT_FALSE(Rep->Counterexample.has_value())
      << Rep->Counterexample->Reason;
  EXPECT_GE(Rep->SchedulesExplored, 1u);
}

//===----------------------------------------------------------------------===//
// Checkpointed backtracking
//===----------------------------------------------------------------------===//

/// examples/msg_pipeline.fls built the way `fearlessc mc --mc-checks=X`
/// builds it: VM engine, checks emitted iff on.
std::shared_ptr<const CompiledArtifact> msgPipeline(bool Checks) {
  std::ifstream In(FEARLESS_EXAMPLES_DIR "/msg_pipeline.fls");
  std::stringstream Text;
  Text << In.rdbuf();
  PipelineOptions PO;
  PO.Checks = Checks;
  PO.EmitChecks = Checks;
  Expected<std::shared_ptr<const CompiledArtifact>> A =
      buildArtifact(Text.str(), PO);
  EXPECT_TRUE(A.hasValue()) << (A ? "" : A.error().render());
  return A ? *A : nullptr;
}

/// One consumer of \p Consume items plus one producer per entry of
/// \p Producers, with the CLI's per-step §6 validators (plus \p Extra,
/// when given).
mc::MachineFactory
splitFactory(const CompiledArtifact &Art, int64_t Consume,
             std::vector<int64_t> Producers,
             std::function<std::optional<std::string>(const Machine &)>
                 Extra = nullptr) {
  return [&Art, Consume, Producers, Extra]() {
    MachineOptions MO;
    MO.CheckReservations = Art.Options.Checks;
    MO.StaticVerdicts = &Art.Verdicts;
    MO.VmCode = &*Art.VmCode;
    MO.StepValidator =
        [Extra](const Machine &M) -> std::optional<std::string> {
      if (auto E = checkReservationsDisjoint(M))
        return E;
      if (auto E = checkStoredRefCounts(M.heap()))
        return E;
      return Extra ? Extra(M) : std::nullopt;
    };
    Program &Prog = *Art.P.Prog;
    auto M = std::make_unique<Machine>(Art.P.Checked, MO);
    M->spawn(Prog.Names.intern("consumer"), {Value::intVal(Consume)});
    for (int64_t K : Producers)
      M->spawn(Prog.Names.intern("producer"), {Value::intVal(K)});
    return M;
  };
}

TEST(Mc, CheckpointedExplorationKeepsTheReplayCounts) {
  // The explored/pruned counts of exploring by prefix replay, pinned:
  // restoring a checkpoint must reach exactly the states replay did.
  struct Split {
    int64_t Consume;
    std::vector<int64_t> Producers;
    uint64_t Explored, Pruned;
  };
  const Split Splits[] = {{4, {2, 2}, 33, 13},
                          {6, {3, 3}, 227, 96},
                          {6, {2, 2, 2}, 1052, 428}};
  for (bool Checks : {true, false}) {
    std::shared_ptr<const CompiledArtifact> Art = msgPipeline(Checks);
    ASSERT_TRUE(Art);
    for (const Split &S : Splits) {
      mc::McOptions Opts;
      size_t Calls = 0;
      mc::MachineFactory Inner =
          splitFactory(*Art, S.Consume, S.Producers);
      Expected<mc::McReport> Rep = mc::explore(
          [&] {
            ++Calls;
            return Inner();
          },
          Opts);
      std::string Label = "c" + std::to_string(S.Consume) + " x" +
                          std::to_string(S.Producers.size()) +
                          (Checks ? " on" : " off");
      ASSERT_TRUE(Rep.hasValue()) << Label << ": " << Rep.error().render();
      EXPECT_FALSE(Rep->Counterexample.has_value()) << Label;
      EXPECT_TRUE(Rep->Complete) << Label;
      EXPECT_EQ(Rep->SchedulesExplored, S.Explored) << Label;
      EXPECT_EQ(Rep->SchedulesPruned, S.Pruned) << Label;
      EXPECT_EQ(Calls, 1u) << Label << ": one machine per exploration";
    }
  }
}

TEST(Mc, ViolationReachedOnlyAfterARestoreReplaysBitIdentically) {
  // A step validator that trips only once the second producer finished
  // while the first has not. The first execution never backtracks and
  // never gets there, so the failing state is reached from a restored
  // checkpoint; the counterexample must still replay on a fresh machine
  // to the same message, metrics, and blocked-state dump.
  std::shared_ptr<const CompiledArtifact> Art = msgPipeline(true);
  ASSERT_TRUE(Art);
  std::string TripMetrics;
  auto Trip = [&TripMetrics](const Machine &M)
      -> std::optional<std::string> {
    const std::vector<ThreadState> &T = M.threads();
    if (T[2].Status == ThreadStatus::Finished &&
        T[1].Status != ThreadStatus::Finished) {
      TripMetrics = M.metrics().toJson();
      return std::string("second producer finished first");
    }
    return std::nullopt;
  };
  mc::MachineFactory Factory = splitFactory(*Art, 4, {2, 2}, Trip);
  Expected<mc::McReport> Rep = mc::explore(Factory, mc::McOptions{});
  ASSERT_TRUE(Rep.hasValue()) << Rep.error().render();
  ASSERT_TRUE(Rep->Counterexample.has_value());
  const mc::McCounterexample &CE = *Rep->Counterexample;
  EXPECT_NE(CE.Reason.find("second producer finished first"),
            std::string::npos)
      << CE.Reason;
  // At least one schedule completed first: the failing execution began
  // with a restore, not from the root.
  EXPECT_GE(Rep->SchedulesExplored, 1u);
  std::string ExploredMetrics = TripMetrics;

  std::unique_ptr<Machine> Fresh = Factory();
  Expected<MachineSummary> R = mc::runSchedule(*Fresh, CE.Sched);
  ASSERT_FALSE(R.hasValue());
  EXPECT_EQ(R.error().Message, CE.Reason);
  EXPECT_EQ(Fresh->blockedStateDump(), CE.BlockedDump);
  EXPECT_EQ(TripMetrics, ExploredMetrics);
}

TEST(Mc, RestoredEndStatesMatchFreshRuns) {
  // The N-th completed schedule's end state, reached through restores,
  // equals a fresh machine replaying that schedule from the root. An
  // end-state property that fails on the N-th call hands back the
  // schedule.
  std::shared_ptr<const CompiledArtifact> Art = msgPipeline(false);
  ASSERT_TRUE(Art);
  mc::MachineFactory Factory = splitFactory(*Art, 4, {2, 2});
  auto EndState = [](const Machine &M) {
    RuntimeMetrics Metrics = M.metrics();
    Metrics.Steps = 0; // stamped by finishStepping, which mc never calls
    return Metrics.toJson() + " fp " +
           std::to_string(M.resultFingerprint()) + " objects " +
           std::to_string(M.heap().size());
  };
  for (uint64_t N : {1u, 2u, 7u, 20u, 33u}) {
    uint64_t Calls = 0;
    std::string Explored;
    mc::McOptions Opts;
    Opts.Validate = [&](const Machine &M) -> std::optional<std::string> {
      if (++Calls < N)
        return std::nullopt;
      Explored = EndState(M);
      return std::string("stop");
    };
    Expected<mc::McReport> Rep = mc::explore(Factory, Opts);
    ASSERT_TRUE(Rep.hasValue()) << Rep.error().render();
    ASSERT_TRUE(Rep->Counterexample.has_value()) << N;
    std::unique_ptr<Machine> Fresh = Factory();
    Expected<MachineSummary> R =
        mc::runSchedule(*Fresh, Rep->Counterexample->Sched);
    ASSERT_TRUE(R.hasValue()) << R.error().Message;
    EXPECT_EQ(EndState(*Fresh), Explored) << "schedule " << N;
  }
}

TEST(Mc, EveryRestoredScheduleSeesTheInjectedFault) {
  // chan.send=nth:2 kills every execution at its second send. A
  // restore must rewind the injector's occurrence count with the heap,
  // or the schedules after the first would run fault-free to
  // completion.
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  FaultPlan Plan = *parseFaultSpec("chan.send=nth:2");
  std::unique_ptr<FaultInjector> Slot;
  mc::MachineFactory Factory = [&]() {
    Slot = std::make_unique<FaultInjector>(Plan);
    MachineOptions MO;
    MO.Faults = Slot.get();
    auto M = std::make_unique<Machine>(P.Checked, MO);
    M->spawn(sym(P, "producer"), {Value::intVal(2)});
    M->spawn(sym(P, "consumer"), {Value::intVal(2)});
    return M;
  };
  uint64_t Completed = 0;
  mc::McOptions Opts;
  Opts.CheckDivergence = false;
  Opts.Validate = [&Completed](const Machine &) {
    ++Completed;
    return std::optional<std::string>();
  };
  Expected<mc::McReport> Rep = mc::explore(Factory, Opts);
  ASSERT_TRUE(Rep.hasValue()) << Rep.error().render();
  EXPECT_FALSE(Rep->Counterexample.has_value());
  EXPECT_GE(Rep->SchedulesExplored, 2u);
  EXPECT_EQ(Completed, 0u);
}

//===----------------------------------------------------------------------===//
// Schedule file diagnostics
//===----------------------------------------------------------------------===//

TEST(Mc, CorruptScheduleFilesDiagnoseCleanly) {
  auto ErrorOf = [](std::string_view Text) {
    Expected<mc::Schedule> S = mc::Schedule::parse(Text);
    EXPECT_FALSE(S.hasValue());
    return S.hasValue() ? std::string() : S.error().Message;
  };
  EXPECT_NE(ErrorOf("bogus\n").find("missing 'fearless-schedule-v1'"),
            std::string::npos);
  EXPECT_NE(ErrorOf("fearless-schedule-v1\nnonsense\n")
                .find("expected 'choices <count>'"),
            std::string::npos);
  EXPECT_NE(ErrorOf("fearless-schedule-v1\nchoices two\n")
                .find("malformed choice count"),
            std::string::npos);
  // Truncated mid-list: declared three, found one.
  std::string Truncated = ErrorOf("fearless-schedule-v1\nchoices 3\nt 0\n");
  EXPECT_NE(Truncated.find("truncated"), std::string::npos) << Truncated;
  EXPECT_NE(Truncated.find("declared 3"), std::string::npos);
  // Cut off before the end trailer.
  EXPECT_NE(ErrorOf("fearless-schedule-v1\nchoices 1\nt 0\n")
                .find("missing 'end' trailer"),
            std::string::npos);
  EXPECT_NE(ErrorOf("fearless-schedule-v1\nchoices 0\nend\nextra\n")
                .find("trailing content"),
            std::string::npos);
  EXPECT_NE(ErrorOf("fearless-schedule-v1\nchoices 1\nt x\nend\n")
                .find("malformed thread id"),
            std::string::npos);
  // Line numbers point at the offending line.
  EXPECT_NE(ErrorOf("fearless-schedule-v1\nchoices two\n").find("line 2"),
            std::string::npos);
}

TEST(Mc, MismatchedScheduleDiagnosesCleanly) {
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  auto Fresh = [&P]() {
    auto M = std::make_unique<Machine>(P.Checked);
    M->spawn(sym(P, "producer"), {Value::intVal(2)});
    M->spawn(sym(P, "consumer"), {Value::intVal(2)});
    return M;
  };
  // An empty schedule runs out at the first branching point.
  std::unique_ptr<Machine> M1 = Fresh();
  Expected<MachineSummary> R1 = mc::runSchedule(*M1, mc::Schedule{});
  ASSERT_FALSE(R1.hasValue());
  EXPECT_NE(R1.error().Message.find("schedule exhausted"),
            std::string::npos)
      << R1.error().Message;
  // A choice naming a thread that is not runnable.
  mc::Schedule Bad;
  Bad.Choices = {7};
  std::unique_ptr<Machine> M2 = Fresh();
  Expected<MachineSummary> R2 = mc::runSchedule(*M2, Bad);
  ASSERT_FALSE(R2.hasValue());
  EXPECT_NE(R2.error().Message.find("not runnable"), std::string::npos)
      << R2.error().Message;
}

} // namespace

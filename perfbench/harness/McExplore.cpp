//===- perfbench/harness/McExplore.cpp - Workload mc_explore --------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// `fearlessc mc` on examples/msg_pipeline.fls: mc::explore over a fixed
// set of consumer/producer splits (2-3 producers, the 2x5 split with
// ~12k schedules, reservation checks on and off) plus the deadlock
// fixture (`consumer 1`, no producer). The Machine stepping API runs once
// per scheduling choice here and DPOR bookkeeping dominates; no other
// workload stresses the mc layer. Each problem is built exactly as the
// CLI builds it, §6 invariant validators included. The figure is the time
// to a verdict for the whole set: the sum of per-problem calibrated
// medians.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "mc/Dpor.h"
#include "runtime/Invariants.h"

using namespace fearless;

namespace perfbench {
namespace {

struct Problem {
  const char *Name;
  int64_t Consume;
  std::vector<int64_t> Producers;
  bool Checks;
  bool ExpectDeadlock;
};

const std::vector<Problem> &problems() {
  static const std::vector<Problem> Set = {
      {"c4_p2x2_on", 4, {2, 2}, true, false},
      {"c6_p3x2_on", 6, {3, 3}, true, false},
      {"c6_p2x3_on", 6, {2, 2, 2}, true, false},
      {"c10_p5x2_on", 10, {5, 5}, true, false},
      {"c6_p3x2_off", 6, {3, 3}, false, false},
      {"c6_p2x3_off", 6, {2, 2, 2}, false, false},
      {"deadlock_c1", 1, {}, true, true},
  };
  return Set;
}

PipelineOptions mcOptions(bool Checks) {
  // `fearlessc mc --mc-checks=on|off`: the artifact is built with the
  // effective checks setting.
  PipelineOptions O;
  O.Checks = Checks;
  O.EmitChecks = Checks;
  return O;
}

struct Built {
  std::string Source;
  std::shared_ptr<const CompiledArtifact> On, Off;
};

/// Counters gathered from every completed schedule's final machine.
struct EndStats {
  double VmInstructions = 0, Allocations = 0, ReservationChecks = 0;
  double Sends = 0, Recvs = 0;
};

struct Outcome {
  double Ms = 0;
  double FactoryMs = 0;
  mc::McReport Rep;
  std::string Error;
  EndStats End;
};

Outcome explore(const CompiledArtifact &Art, const Problem &P) {
  Outcome Out;
  Program &Prog = *Art.P.Prog;
  Symbol Consumer = Prog.Names.intern("consumer");
  Symbol Producer = Prog.Names.intern("producer");
  mc::MachineFactory Factory = [&]() {
    Clock::time_point T0 = Clock::now();
    MachineOptions MO;
    MO.CheckReservations = P.Checks;
    MO.StaticVerdicts = &Art.Verdicts;
    MO.ElideDisconnect = true;
    if (Art.VmCode)
      MO.VmCode = &*Art.VmCode;
    MO.StepValidator = [](const Machine &M) -> std::optional<std::string> {
      if (auto E = checkReservationsDisjoint(M))
        return E;
      if (auto E = checkStoredRefCounts(M.heap()))
        return E;
      return std::nullopt;
    };
    auto M = std::make_unique<Machine>(Art.P.Checked, MO);
    M->spawn(Consumer, {Value::intVal(P.Consume)});
    for (int64_t K : P.Producers)
      M->spawn(Producer, {Value::intVal(K)});
    Out.FactoryMs += msSince(T0);
    return M;
  };
  // The consumer's total, computed here: every producer k sends
  // 0 .. k-1.
  int64_t Want = 0;
  for (int64_t K : P.Producers)
    Want += K * (K - 1) / 2;
  mc::McOptions MO;
  MO.Validate = [&](const Machine &M) -> std::optional<std::string> {
    const MachineStats &S = M.stats();
    Out.End.VmInstructions += static_cast<double>(S.VmInstructions);
    Out.End.Allocations += static_cast<double>(S.Allocations);
    Out.End.ReservationChecks += static_cast<double>(S.ReservationChecks);
    Out.End.Sends += static_cast<double>(S.Sends);
    Out.End.Recvs += static_cast<double>(S.Recvs);
    const Value &Got = M.threads()[0].Result;
    if (Got.asInt() != Want)
      return "consumer total " + toString(Got) + ", expected " +
             std::to_string(Want);
    return std::nullopt;
  };
  Clock::time_point T0 = Clock::now();
  Expected<mc::McReport> Rep = mc::explore(Factory, MO);
  Out.Ms = msSince(T0);
  if (!Rep)
    Out.Error = Rep.error().render();
  else
    Out.Rep = *Rep;
  return Out;
}

std::string verdictMismatch(const Problem &P, const Outcome &O) {
  if (!O.Error.empty())
    return std::string(P.Name) + ": " + O.Error;
  const mc::McReport &R = O.Rep;
  if (P.ExpectDeadlock) {
    if (!R.Counterexample)
      return std::string(P.Name) + ": no counterexample";
    if (R.Counterexample->Reason.find("deadlock") == std::string::npos)
      return std::string(P.Name) + ": counterexample is not a deadlock: " +
             R.Counterexample->Reason;
    return "";
  }
  if (R.Counterexample)
    return std::string(P.Name) + ": counterexample: " +
           R.Counterexample->Reason;
  if (!R.Complete || R.SchedulesExplored == 0)
    return std::string(P.Name) + ": exploration incomplete: " + R.Clipped;
  return "";
}

} // namespace

Result runMcExplore(const Args &A) {
  Result R;
  Built B;
  Calibration Cal;
  double SetupS = timeSetup(
      25,
      [&] {
        B.Source = readFileOrDie(A.Root + "/examples/msg_pipeline.fls");
        B.On = buildOrDie(B.Source, mcOptions(true));
        B.Off = buildOrDie(B.Source, mcOptions(false));
      },
      Cal);

  TraceSession Session(TraceConfig{TraceCapacity});
  TraceBuffer *TB = nullptr;
  if (A.Trace) {
    TB = &Session.registerThread(1, "perfbench-main");
    CompileLayers Layers;
    for (bool Checks : {true, false}) {
      TracedBuild TBd = [&] {
        SpanScope Span(TB, "driver.buildArtifact", Checks ? 1 : 2);
        return tracedBuild(B.Source, mcOptions(Checks));
      }();
      Layers.add(runStages(B.Source, mcOptions(Checks), TB, Checks ? 1 : 2),
                 TBd);
    }
    Layers.report(R);
  }

  const std::vector<Problem> &Set = problems();
  std::vector<std::vector<double>> Ms(Set.size()), CalMs(Set.size()),
      TracedCalMs(Set.size());
  // Counts of the first exploration of each problem; every later one
  // must repeat them exactly.
  std::vector<std::optional<std::pair<uint64_t, uint64_t>>> Counts(
      Set.size());
  double Schedules = 0, Pruned = 0, Steps = 0, ExploreMs = 0, FactoryMs = 0;
  EndStats End;
  double CounterexampleMs = 0;

  Rng Order(A.Seed ^ 0x3C3C3C3Cull);
  uint64_t ReqId = 0;
  auto RunOne = [&](size_t I, bool Tracing) {
    const Problem &P = Set[I];
    ++R.Attempted;
    ++ReqId;
    Cal.sample();
    Clock::time_point T0 = Clock::now();
    Outcome O = [&] {
      SpanScope Span(Tracing ? TB : nullptr, "mc.explore", ReqId);
      return explore(P.Checks ? *B.On : *B.Off, P);
    }();
    if (std::string Why = verdictMismatch(P, O); !Why.empty()) {
      R.fail(Why);
      return;
    }
    std::pair<uint64_t, uint64_t> C = {O.Rep.SchedulesExplored,
                                       O.Rep.SchedulesPruned};
    if (!Counts[I]) {
      Counts[I] = C;
    } else if (*Counts[I] != C) {
      R.fail(std::string(P.Name) + ": explored/pruned " +
             std::to_string(C.first) + "/" + std::to_string(C.second) +
             " differs from the first exploration's " +
             std::to_string(Counts[I]->first) + "/" +
             std::to_string(Counts[I]->second));
      return;
    }
    double CalOne = O.Ms * Cal.factorAt(T0);
    if (!Tracing) {
      Ms[I].push_back(O.Ms);
      CalMs[I].push_back(CalOne);
      return;
    }
    TracedCalMs[I].push_back(CalOne);
    Schedules += static_cast<double>(O.Rep.SchedulesExplored);
    Pruned += static_cast<double>(O.Rep.SchedulesPruned);
    Steps += static_cast<double>(O.Rep.StepsExecuted);
    ExploreMs += O.Ms;
    FactoryMs += O.FactoryMs;
    End.VmInstructions += O.End.VmInstructions;
    End.Allocations += O.End.Allocations;
    End.ReservationChecks += O.End.ReservationChecks;
    End.Sends += O.End.Sends;
    End.Recvs += O.End.Recvs;
    if (P.ExpectDeadlock)
      CounterexampleMs = O.Ms;
  };

  // Untraced passes for --seconds (half of it in a traced run); then, when
  // traced, exactly one traced pass so per-layer counts repeat.
  double UntracedMs = A.Trace ? A.Seconds * 500 : A.Seconds * 1000;
  Clock::time_point Start = Clock::now();
  for (bool Done = false; !Done;)
    for (size_t I : Order.permutation(Set.size())) {
      if (msSince(Start) >= UntracedMs) {
        Done = true;
        break;
      }
      RunOne(I, false);
    }
  if (A.Trace)
    for (size_t I : Order.permutation(Set.size()))
      RunOne(I, true);

  double VerdictMs = 0;
  for (size_t I = 0; I < Set.size(); ++I) {
    if (Ms[I].empty())
      continue;
    VerdictMs += median(Ms[I]);
    char Line[160];
    std::snprintf(Line, sizeof(Line),
                  "%-14s median %10.4f ms  explored %llu, pruned %llu "
                  "(%zu samples)",
                  Set[I].Name, median(Ms[I]),
                  static_cast<unsigned long long>(
                      Counts[I] ? Counts[I]->first : 0),
                  static_cast<unsigned long long>(
                      Counts[I] ? Counts[I]->second : 0),
                  Ms[I].size());
    R.detail(Line);
  }
  R.detailMetric("mc_verdict_s", VerdictMs / 1000, "s");
  R.detailMetric("reference median", Cal.medianRefMs(), "ms");
  R.e2e("setup_s", SetupS, "s");
  R.e2e("peak_rss_mb", peakRssMb(), "MB");
  reportLatency(R, CalMs);
  if (!A.Trace)
    return R;

  R.layer("mc.schedules", Schedules, "count");
  R.layer("mc.pruned", Pruned, "count");
  R.layer("mc.prune_ratio",
          Schedules + Pruned > 0 ? Pruned / (Schedules + Pruned) : 0,
          "ratio");
  R.layer("mc.steps", Steps, "count");
  R.layer("mc.steps_per_s", ExploreMs > 0 ? Steps / (ExploreMs / 1000) : 0,
          "1/s");
  R.layer("mc.factory_ms", FactoryMs, "ms");
  R.layer("mc.counterexample_ms", CounterexampleMs, "ms");
  R.layer("runtime.steps", Steps, "count");
  R.layer("vm.instructions", End.VmInstructions, "count");
  R.layer("runtime.allocations", End.Allocations, "count");
  R.layer("runtime.reservation_checks", End.ReservationChecks, "count");
  R.layer("runtime.sends", End.Sends, "count");
  R.layer("runtime.recvs", End.Recvs, "count");

  // Tracing overhead: the traced pass over an untraced one, both
  // calibrated, over the problems seen in both phases.
  double TracedPassMs = 0, UntracedPassMs = 0;
  for (size_t I = 0; I < Set.size(); ++I)
    if (!CalMs[I].empty() && !TracedCalMs[I].empty()) {
      TracedPassMs += median(TracedCalMs[I]);
      UntracedPassMs += median(CalMs[I]);
    }
  R.layer("trace.overhead_ratio",
          UntracedPassMs > 0 ? TracedPassMs / UntracedPassMs - 1 : 0, "ratio");
  writeTrace(Session, A);
  return R;
}

} // namespace perfbench

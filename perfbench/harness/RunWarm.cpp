//===- perfbench/harness/RunWarm.cpp - Workload run_warm ------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// Warm `fearlessc run`: artifacts are built during set-up, so the timed
// loop is pure execution. Five request classes, each dominated by a
// different part of the runtime, run with default options (the checked
// VM on the Machine) unless the class says otherwise:
//
//   rb_insert     the red-black tree driver: VM dispatch and the heap.
//   dll_remove    build a dll, then remove_tail every node; its
//                 `if disconnected` sites are unknown, so the traversal
//                 runs on every removal.
//   pipe_machine  producer_lists/consumer_lists as Machine root threads.
//   pipe_tasks    the same pipeline, 2 producers + 1 consumer, on
//                 ParallelExec's task scheduler with 2 workers.
//   interp        the rb driver on the tree-walking interpreter.
//
// Every round runs each class once, in a seeded order; the figure is one
// round: the sum of the classes' calibrated medians.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "concurrency/ParallelExec.h"

using namespace fearless;

namespace perfbench {
namespace {

constexpr int64_t RbN = 3000;
constexpr int64_t DllN = 6000;
constexpr int64_t PipeLists = 480; // split evenly over 2 producers
constexpr int64_t PipeChunk = 32;
constexpr int64_t InterpN = 400;

/// The pipeline's closed form: every list holds 0 .. chunk-1.
int64_t pipeTotal() { return PipeLists * (PipeChunk * (PipeChunk - 1) / 2); }

enum Class { RbInsert, DllRemove, PipeMachine, PipeTasks, Interp, NumClasses };
const char *ClassNames[NumClasses] = {"rb_insert", "dll_remove",
                                      "pipe_machine", "pipe_tasks", "interp"};
const char *SpanNames[NumClasses] = {"run.rb_insert", "run.dll_remove",
                                     "run.pipe_machine", "run.pipe_tasks",
                                     "run.interp"};

PipelineOptions erasedOptions() {
  // What `fearlessc run --workers` builds: the parallel executors always
  // run erased.
  PipelineOptions O;
  O.EmitChecks = false;
  return O;
}

PipelineOptions interpOptions() {
  PipelineOptions O;
  O.Engine = "interp";
  return O;
}

/// The source and build options of each class's artifact.
std::pair<std::string, PipelineOptions> buildInput(int C) {
  switch (C) {
  case RbInsert:
    return {rbDriverSource(), PipelineOptions{}};
  case DllRemove:
    return {dllDriverSource(), PipelineOptions{}};
  case PipeMachine:
    return {programs::MessagePassing, PipelineOptions{}};
  case PipeTasks:
    return {programs::MessagePassing, erasedOptions()};
  default:
    return {rbDriverSource(), interpOptions()};
  }
}

/// "fn(...) = V" on the first output line → V.
bool firstResult(const std::string &Out, int64_t &V) {
  size_t Eq = Out.find(" = ");
  if (Eq == std::string::npos)
    return false;
  char *End = nullptr;
  V = std::strtoll(Out.c_str() + Eq + 3, &End, 10);
  return End && *End == '\n';
}

struct Sample {
  double Ms = 0;
  double CalMs = 0;
  RuntimeMetrics M;
};

} // namespace

Result runRunWarm(const Args &A) {
  Result R;
  const std::vector<int> Classes = {RbInsert, DllRemove, PipeMachine,
                                    PipeTasks, Interp};
  std::shared_ptr<const CompiledArtifact> Art[NumClasses];
  Calibration Cal;
  double SetupS = timeSetup(
      15,
      [&] {
        for (int C : Classes) {
          auto [Src, Opts] = buildInput(C);
          Art[C] = buildOrDie(Src, Opts);
        }
      },
      Cal);

  const int64_t ExpectRb = distinctRbKeys(RbN);
  const int64_t ExpectInterp = distinctRbKeys(InterpN);
  const int64_t ExpectPipe = pipeTotal();

  TraceSession Session(TraceConfig{TraceCapacity});
  TraceBuffer *TB = nullptr;
  if (A.Trace) {
    TB = &Session.registerThread(1, "perfbench-main");
    // The compile layers of this workload: its set-up builds, split.
    CompileLayers Layers;
    uint64_t Id = 0;
    for (int C : Classes) {
      auto [Src, Opts] = buildInput(C);
      TracedBuild B = [&] {
        SpanScope Span(TB, "driver.buildArtifact", ++Id);
        return tracedBuild(Src, Opts);
      }();
      Layers.add(runStages(Src, Opts, TB, Id), B);
    }
    Layers.report(R);
  }

  Rng Gen(A.Seed ^ 0x5EEDF00Dull);
  std::vector<Sample> Untraced[NumClasses], Traced[NumClasses];
  double UntracedMs = A.Trace ? A.Seconds * 500 : A.Seconds * 1000;
  Clock::time_point Start = Clock::now();
  uint64_t ReqId = 0;
  bool Done = false;
  while (!Done) {
    std::vector<int> Round = Classes;
    Gen.shuffle(Round);
    for (int C : Round) {
      double Elapsed = msSince(Start);
      bool Tracing = A.Trace && Elapsed >= UntracedMs;
      if (Elapsed >= A.Seconds * 1000) {
        Done = true;
        break;
      }
      // The reference runs between requests, never beside one.
      Cal.sampleIfOlder(50);
      ++R.Attempted;
      ++ReqId;
      RunSpec Spec;
      Spec.Seed = Gen.next();
      int64_t Got = 0, Want = 0;
      bool Ok = true;
      std::string Err;
      Sample S;
      Clock::time_point T0 = Clock::now();
      {
        SpanScope Span(Tracing ? TB : nullptr, SpanNames[C], ReqId);
        if (C == PipeTasks) {
          const CompiledArtifact &Erased = *Art[PipeTasks];
          ParallelExecOptions PO;
          PO.NumWorkers = 2;
          PO.SchedSeed = Gen.next();
          PO.VmCode = &*Erased.VmCode;
          ParallelExec Exec(Erased.P.Checked, PO);
          Program &Prog = *Erased.P.Prog;
          Exec.spawn(Prog.Names.intern("consumer_lists"),
                     {Value::intVal(PipeLists)});
          for (int P = 0; P < 2; ++P)
            Exec.spawn(Prog.Names.intern("producer_lists"),
                       {Value::intVal(PipeLists / 2),
                        Value::intVal(PipeChunk)});
          Expected<std::vector<Value>> Res = Exec.run();
          S.Ms = msSince(T0);
          S.M = Exec.metrics();
          if (!Res) {
            Ok = false;
            Err = Res.error().render();
          } else {
            Got = (*Res)[0].asInt();
          }
          Want = ExpectPipe;
        } else {
          Spec.Fn = "drive";
          switch (C) {
          case RbInsert:
            Spec.Args = {RbN};
            Want = ExpectRb;
            break;
          case DllRemove:
            Spec.Args = {DllN};
            Want = DllN;
            break;
          case PipeMachine:
            Spec.Fn = "consumer_lists";
            Spec.Args = {PipeLists};
            Spec.Spawns = {{"producer_lists", {PipeLists / 2, PipeChunk}},
                           {"producer_lists", {PipeLists / 2, PipeChunk}}};
            Want = ExpectPipe;
            break;
          default:
            Spec.Args = {InterpN};
            Want = ExpectInterp;
            break;
          }
          RunOutcome O = runArtifact(*Art[C], Spec);
          S.Ms = msSince(T0);
          S.M = O.Metrics;
          if (O.Exit != 0 || !firstResult(O.Out, Got)) {
            Ok = false;
            Err = "exit " + std::to_string(O.Exit) + ": " + O.Out + O.Err;
          }
        }
      }
      S.CalMs = S.Ms * Cal.factorAt(T0);
      if (!Ok)
        R.fail(std::string(ClassNames[C]) + ": " + Err);
      else if (Got != Want)
        R.fail(std::string(ClassNames[C]) + ": result " +
               std::to_string(Got) + ", closed form " + std::to_string(Want));
      (Tracing ? Traced : Untraced)[C].push_back(S);
    }
  }

  // End-to-end figures come from the untraced phase only.
  std::vector<std::vector<double>> CalByClass;
  double UntracedCal = 0;
  for (int C : Classes) {
    std::vector<double> Ms, CalMs;
    for (const Sample &S : Untraced[C]) {
      Ms.push_back(S.Ms);
      CalMs.push_back(S.CalMs);
    }
    Tail T = tailOf(Ms);
    UntracedCal += median(CalMs);
    CalByClass.push_back(CalMs);
    char Line[192];
    std::snprintf(Line, sizeof(Line),
                  "%-16s median %9.4f ms   p%.1f %9.4f ms   (%zu samples)   "
                  "calibrated median %9.4f ms",
                  (std::string(ClassNames[C]) + "_ms").c_str(), median(Ms),
                  T.Percentile, T.Value, T.Samples, median(CalMs));
    R.detail(Line);
  }
  R.detailMetric("reference median", Cal.medianRefMs(), "ms");
  R.e2e("setup_s", SetupS, "s");
  R.e2e("peak_rss_mb", peakRssMb(), "MB");
  reportLatency(R, CalByClass);
  if (!A.Trace)
    return R;

  // Per-layer figures from the traced phase. Counters are totals of one
  // round (each class once, medians per class); rates divide by the time
  // of the classes that produce them.
  auto MedOf = [&](int C, auto Field) {
    std::vector<double> V;
    for (const Sample &S : Traced[C])
      V.push_back(static_cast<double>(Field(S)));
    return median(V);
  };
  auto Round = [&](auto Field) {
    double Sum = 0;
    for (int C = 0; C < NumClasses; ++C)
      Sum += MedOf(C, Field);
    return Sum;
  };
  auto Ms = [](const Sample &S) { return S.Ms; };
  double VmInstr = 0, VmMs = 0;
  for (int C : {RbInsert, DllRemove, PipeMachine}) {
    VmInstr += MedOf(C, [](const Sample &S) { return S.M.VmInstructions; });
    VmMs += MedOf(C, Ms);
  }
  double IcHits = Round([](const Sample &S) { return S.M.IcHits; });
  double IcMisses = Round([](const Sample &S) { return S.M.IcMisses; });
  double DChecks = Round([](const Sample &S) { return S.M.DisconnectChecks; });
  double DElided = Round([](const Sample &S) { return S.M.DisconnectElided; });
  double InterpSteps = MedOf(Interp, [](const Sample &S) { return S.M.Steps; });
  double InterpMs = MedOf(Interp, Ms);

  R.layer("vm.instructions",
          Round([](const Sample &S) { return S.M.VmInstructions; }), "count");
  R.layer("vm.minstr_per_s", VmMs > 0 ? VmInstr / 1e6 / (VmMs / 1000) : 0,
          "Minstr/s");
  R.layer("vm.ic_hit_ratio",
          IcHits + IcMisses > 0 ? IcHits / (IcHits + IcMisses) : 0, "ratio");
  R.layer("runtime.allocations",
          Round([](const Sample &S) { return S.M.Allocations; }), "count");
  R.layer("runtime.reservation_checks",
          Round([](const Sample &S) { return S.M.ReservationChecks; }),
          "count");
  R.layer("runtime.disconnect_checks", DChecks, "count");
  R.layer("runtime.disconnect_visited",
          Round([](const Sample &S) { return S.M.DisconnectObjectsVisited; }),
          "count");
  R.layer("runtime.disconnect_elided_ratio",
          DChecks > 0 ? DElided / DChecks : 0, "ratio");
  R.layer("runtime.steps", Round([](const Sample &S) { return S.M.Steps; }),
          "count");
  R.layer("runtime.interp_steps_per_s",
          InterpMs > 0 ? InterpSteps / (InterpMs / 1000) : 0, "1/s");
  R.layer("runtime.sends", Round([](const Sample &S) { return S.M.Sends; }),
          "count");
  R.layer("runtime.recvs", Round([](const Sample &S) { return S.M.Recvs; }),
          "count");
  if (!Traced[PipeTasks].empty())
    R.layer("concurrency.run_ms", MedOf(PipeTasks, Ms), "ms");
  R.layer("concurrency.tasks_spawned",
          MedOf(PipeTasks, [](const Sample &S) { return S.M.TasksSpawned; }),
          "count");
  R.layer("concurrency.steals",
          MedOf(PipeTasks, [](const Sample &S) { return S.M.Steals; }),
          "count");
  R.layer("concurrency.parks",
          MedOf(PipeTasks, [](const Sample &S) { return S.M.Parks; }),
          "count");

  // Tracing overhead: one traced round over one untraced round, both
  // calibrated.
  R.layer("trace.overhead_ratio",
          Round([](const Sample &S) { return S.CalMs; }) / UntracedCal - 1,
          "ratio");
  R.detailMetric("spans recorded",
                 static_cast<double>(collectSpans(Session).size()), "count");
  writeTrace(Session, A);
  return R;
}

} // namespace perfbench

//===- tools/fearlessc.cpp - Command-line driver ---------------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// fearlessc — check, inspect, analyze, and run surface-language programs.
//
//   fearlessc check file.fls            parse + region-check + verify
//   fearlessc analyze file.fls          static region-graph analysis:
//                                       per-site disconnect verdicts and
//                                       region lints (--samples analyzes
//                                       every embedded sample instead)
//   fearlessc run file.fls main [ints]  check, then run main(ints...)
//   fearlessc mc file.fls [fn [ints]]   model-check the bounded schedule
//                                       space of fn (default main) plus
//                                       every --spawn thread: DFS over
//                                       scheduler choices with DPOR +
//                                       sleep-set pruning; a property
//                                       violation exits 7 and writes a
//                                       replayable counterexample
//                                       schedule (docs/MODELCHECK.md)
//   fearlessc disasm file.fls           print the compiled bytecode:
//                                       chunks, constant pools, and the
//                                       per-site check/erased decisions
//   fearlessc sig file.fls              print every elaborated signature
//   fearlessc derive file.fls fn        print fn's typing derivation
//   fearlessc sample NAME               print an embedded sample program
//                                       (sll | dll | rbtree | message)
//   fearlessc metrics                   (--daemon only) daemon metrics
//   fearlessc shutdown                  (--daemon only) drain the daemon
//
// The check/analyze/run pipeline itself lives in driver/CompilePipeline.h;
// this file is argument parsing plus printing. argv parses straight into
// one Request, which serveRequest — the handler fearlessd calls too —
// answers in-process. With --daemon SOCKET the same request goes to a
// fearlessd instance over fearless-wire-v1 (docs/SERVER.md) instead, with
// bit-identical output: only where the artifact comes from differs, and
// warm submissions skip parse/check/analyze/compile via the daemon's
// derivation cache.
//
// Options: --interprocedural[=on|off] (bottom-up function summaries at
// call sites, on by default; off restores pure signature havoc), --json
// (machine-readable analyze output, schema "fearless-analysis-v1"),
// --summaries (append the per-function summary dump to the analyze
// report), --werror (lint diagnostics fail the analyze with the check
// exit code), --no-oracle (naive unification search), --seed N (schedule),
// --engine vm|interp (register-bytecode VM — the default — or the
// tree-walking interpreter; debug builds cross-check vm results against
// the interpreter), --no-checks (erase dynamic reservation checks),
// --no-elide (keep the dynamic traversal even for statically proven
// disconnect sites),
// --stats, --metrics (run and mc: runtime metrics as one JSON line on
// stdout; other commands reject it),
// --trace FILE (Chrome trace_event JSON for Perfetto/chrome://tracing;
// composes with --metrics), --faults SPEC (deterministic fault
// injection, e.g. "chan.send=nth:3,seed=7"; the FEARLESS_FAULTS env var
// is the no-flag fallback — see docs/OBSERVABILITY.md),
// --daemon SOCKET (serve the command through a fearlessd instance),
// --spawn FN[:ints] (extra root thread for machine-mode run/mc,
// repeatable), --schedule FILE (replay a recorded schedule), and the mc
// budgets --mc-depth N, --mc-schedules N, --mc-preemptions N,
// --mc-checks=on|off, --mc-dpor=on|off, --mc-out FILE.
//
// Exit codes are distinct per failure class so scripts need not parse
// messages: 0 ok, 1 generic/internal, 2 usage, 3 parse error, 4
// check/verify rejection, 5 runtime fault (trap or injected), 6 daemon
// overloaded / shutting down (--daemon only), 7 model-checker
// counterexample (mc only).
//
//===----------------------------------------------------------------------===//

#include "analysis/StaticDisconnect.h"
#include "driver/CompilePipeline.h"
#include "mc/Dpor.h"
#include "runtime/Invariants.h"
#include "server/Client.h"
#include "support/FaultInjector.h"
#include "support/Trace.h"
#include "vm/Compiler.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <vector>

using namespace fearless;

namespace {

// Exit codes (documented in docs/OBSERVABILITY.md, "Exit codes").
constexpr int ExitError = 1;        // generic / infrastructure
constexpr int ExitUsage = 2;        // bad invocation (incl. bad --faults)
constexpr int ExitRuntimeFault = 5; // runtime trap or injected fault
constexpr int ExitCounterexample = 7; // mc found a property violation

int usage() {
  std::fprintf(
      stderr,
      "usage: fearlessc <check|analyze|run|sig|derive|sample> [args] "
      "[options]\n"
      "  check   <file>                parse + region-check + verify\n"
      "  analyze <file>|--samples      static disconnect verdicts + lints\n"
      "  run     <file> <fn> [ints...] check, then run fn(ints...)\n"
      "  mc      <file> [fn [ints...]] model-check the bounded schedule\n"
      "                                space (fn defaults to main; add\n"
      "                                root threads with --spawn)\n"
      "  disasm  <file>                print the compiled bytecode\n"
      "  sig     <file>                print elaborated signatures\n"
      "  derive  <file> <fn>           print fn's typing derivation\n"
      "  dot     <file> <fn>           derivation as a Graphviz digraph\n"
      "  sample  <sll|dll|rbtree|message|trie|extras>  print a sample\n"
      "  metrics                       --daemon only: lifetime metrics\n"
      "  shutdown                      --daemon only: drain the daemon\n"
      "options: --interprocedural[=on|off] --json --summaries --werror "
      "--no-oracle --seed N --engine NAME --no-checks "
      "--no-elide --stats "
      "--metrics --trace FILE --faults SPEC --workers N --sched-seed N "
      "--daemon SOCKET\n"
      "  --interprocedural[=on|off]  bottom-up function summaries at\n"
      "                  call sites (default on; off = signature havoc)\n"
      "  --json          analyze: machine-readable output (schema\n"
      "                  fearless-analysis-v1)\n"
      "  --summaries     analyze: append the per-function summary dump\n"
      "  --werror        analyze: lint diagnostics exit with the check\n"
      "                  error code (4)\n"
      "  --engine NAME   execution engine for run: vm (the register\n"
      "                  bytecode VM, default) or interp (the\n"
      "                  tree-walking interpreter)\n"
      "  --workers N     run on the parallel executor's M:N task\n"
      "                  scheduler with an N-worker pool (0 = auto)\n"
      "  --sched-seed N  scheduling-decision seed for --workers runs\n"
      "  --spawn SPEC    extra root thread FN or FN:a,b,... for the\n"
      "                  deterministic machine (run and mc; repeatable)\n"
      "  --schedule FILE run: replay a recorded counterexample schedule\n"
      "                  deterministically (fearless-schedule-v1)\n"
      "  --mc-depth N    mc: max scheduler turns per execution\n"
      "                  (default 100000)\n"
      "  --mc-schedules N mc: max schedules to explore (0 = unlimited;\n"
      "                  default 100000)\n"
      "  --mc-preemptions N  mc: preemption bound (iterative context\n"
      "                  bounding; default unbounded)\n"
      "  --mc-checks=on|off  mc: explore with dynamic reservation checks\n"
      "                  erased (off) — the erasure-soundness gate; the\n"
      "                  §6 invariant validator always runs\n"
      "  --mc-dpor=on|off    mc: DPOR + sleep-set pruning (off = naive\n"
      "                  DFS over every interleaving)\n"
      "  --mc-out FILE   mc: counterexample schedule path (default\n"
      "                  <file>.sched)\n"
      "  --daemon SOCKET serve check/analyze/run/metrics/shutdown\n"
      "                  through the fearlessd instance at SOCKET\n"
      "                  (docs/SERVER.md); output is bit-identical to\n"
      "                  the standalone command\n"
      "exit codes: 0 ok, 1 error, 2 usage, 3 parse error, 4 check "
      "error, 5 runtime fault, 6 daemon overloaded/shutting down, "
      "7 mc counterexample\n");
  return ExitUsage;
}

Expected<std::string> readFile(const char *Path) {
  std::ifstream In(Path);
  if (!In)
    return fail(std::string("cannot open '") + Path + "'");
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

struct Options {
  /// check/analyze/run: argv parses straight into the request that is
  /// then served locally or sent to the daemon (the other commands read
  /// its pipeline and run fields too).
  server::WireRequest Req;
  /// Chrome trace_event output path (empty = tracing off). Composes
  /// with --metrics: the trace goes to this file, metrics to stdout.
  std::string TracePath;
  /// Fault-injection spec from --faults (see support/FaultInjector.h);
  /// empty = fall back to the FEARLESS_FAULTS env var, then disabled.
  std::string FaultSpec;
  bool FaultSpecSet = false;
  /// --daemon: fearlessd socket path; empty = standalone execution.
  std::string DaemonSocket;
  /// --spawn SPEC (repeatable): extra root threads for the deterministic
  /// machine, as "fn" or "fn:1,2,3". run and mc only.
  std::vector<std::string> SpawnSpecs;
  /// --schedule FILE: replay a recorded schedule (run only).
  std::string SchedulePath;
  /// mc budgets and modes (see mc/Dpor.h for semantics).
  uint64_t McDepth = 100000;
  uint64_t McSchedules = 100000;
  int64_t McPreemptions = -1;
  bool McChecksOn = true;
  bool McDpor = true;
  /// --mc-out: counterexample schedule path; empty = <file>.sched.
  std::string McOut;
};

using SpawnList = std::vector<std::pair<std::string, std::vector<int64_t>>>;

/// Parses every --spawn spec: "fn" or "fn:1,2,3" (int args only, matching
/// the positional-argument rule for the entry function). False, after
/// printing why, on a malformed spec.
bool parseSpawns(const Options &Opts, SpawnList &Out) {
  for (const std::string &Spec : Opts.SpawnSpecs) {
    auto Bad = [&] {
      std::fprintf(stderr,
                   "fearlessc: bad --spawn spec '%s' (expected FN or "
                   "FN:int,int,...)\n",
                   Spec.c_str());
      return false;
    };
    size_t Colon = Spec.find(':');
    auto &[Fn, Args] = Out.emplace_back();
    Fn = Spec.substr(0, Colon == std::string::npos ? Spec.size() : Colon);
    if (Fn.empty())
      return Bad();
    if (Colon == std::string::npos)
      continue;
    std::string Rest = Spec.substr(Colon + 1);
    size_t Pos = 0;
    while (Pos <= Rest.size()) {
      size_t Comma = Rest.find(',', Pos);
      std::string Tok = Rest.substr(
          Pos, Comma == std::string::npos ? Rest.size() - Pos : Comma - Pos);
      if (Tok.empty())
        return Bad();
      char *End = nullptr;
      long long V = std::strtoll(Tok.c_str(), &End, 10);
      if (*End != '\0')
        return Bad();
      Args.push_back(V);
      if (Comma == std::string::npos)
        break;
      Pos = Comma + 1;
    }
  }
  return true;
}

/// Resolves the effective fault plan: --faults wins, then the
/// FEARLESS_FAULTS env var (the hook for harnesses that cannot edit the
/// command line), then none. False, after printing why, on a malformed
/// spec — an invocation error, reported before any work.
bool resolveFaultPlan(const Options &Opts, std::optional<FaultPlan> &Out) {
  std::string FaultSpec = Opts.FaultSpec;
  if (!Opts.FaultSpecSet) {
    if (const char *Env = std::getenv("FEARLESS_FAULTS"))
      FaultSpec = Env;
  }
  if (FaultSpec.empty())
    return true;
  Expected<FaultPlan> Plan = parseFaultSpec(FaultSpec);
  if (!Plan) {
    std::fprintf(stderr, "fearlessc: bad fault spec: %s\n",
                 Plan.error().Message.c_str());
    return false;
  }
  Out = *Plan;
  return true;
}

/// The --trace sink every local command shares. open() probes the path
/// before any work, so an unwritable path is a clean up-front error, not
/// a lost trace after minutes of execution; write() exports whatever was
/// recorded, also for a failed command — a trace of the failure is
/// exactly what the flag is for.
struct TraceSink {
  const std::string &Path;
  TraceSession Session;

  /// False, after printing why, when the path cannot be written.
  bool open() {
    if (Path.empty())
      return true;
    if (!std::ofstream(Path, std::ios::app)) {
      std::fprintf(stderr,
                   "fearlessc: cannot open trace output '%s' for writing\n",
                   Path.c_str());
      return false;
    }
#if !FEARLESS_TRACING_ENABLED
    std::fprintf(stderr,
                 "fearlessc: warning: tracing is compiled out "
                 "(FEARLESS_TRACE=OFF); '%s' will hold an empty trace\n",
                 Path.c_str());
#endif
    return true;
  }

  /// False, after printing why, when the trace could not be written.
  bool write() {
    std::string Error;
    if (Path.empty() || Session.writeChromeJson(Path, Error))
      return true;
    std::fprintf(stderr, "fearlessc: %s\n", Error.c_str());
    return false;
  }
};

/// Reads \p Path and builds its artifact; on failure prints the
/// diagnostic and returns null with the exit code in \p Exit.
std::shared_ptr<const CompiledArtifact>
buildFile(const char *Path, const PipelineOptions &PO, TraceSession *Trace,
          int &Exit) {
  Expected<std::string> Source = readFile(Path);
  if (!Source) {
    std::fprintf(stderr, "%s\n", Source.error().render().c_str());
    Exit = exitCodeForStage(Source.error().Stage);
    return nullptr;
  }
  Expected<std::shared_ptr<const CompiledArtifact>> A =
      buildArtifact(*Source, PO, Trace);
  if (!A) {
    std::fprintf(stderr, "%s\n", A.error().render().c_str());
    Exit = exitCodeForStage(A.error().Stage);
    return nullptr;
  }
  return *A;
}

/// The embedded sample programs, keyed by CLI name. Function-local
/// static on purpose: MessagePassing/Extras point into composite
/// std::strings built by Driver.cpp's dynamic initializers, so a
/// namespace-scope array here could capture null pointers depending on
/// cross-TU static initialization order.
const std::vector<std::pair<const char *, const char *>> &
embeddedSamples() {
  static const std::vector<std::pair<const char *, const char *>> Samples =
      {{"sll", programs::SllSuite},
       {"dll", programs::DllSuite},
       {"rbtree", programs::RedBlackTree},
       {"message", programs::MessagePassing},
       {"trie", programs::BitTrie},
       {"extras", programs::Extras}};
  return Samples;
}

/// check FILE, analyze FILE|--samples and run FILE FN [ints]: completes
/// \p R from the positional arguments and the file's text, then hands it
/// to \p Serve — once, or per embedded sample for analyze --samples with
/// the exit codes OR-ed. \p Serve is the only difference between a
/// standalone command and its --daemon form.
int serveCommand(const std::vector<const char *> &Positional,
                 server::WireRequest &R,
                 const std::function<int(const server::WireRequest &)> &Serve) {
  if (R.Op == server::WireOp::Analyze &&
      !std::strcmp(Positional[1], "--samples")) {
    int Rc = 0;
    for (const auto &[Name, Text] : embeddedSamples()) {
      R.Name = Name;
      R.Source = Text;
      Rc |= Serve(R);
    }
    return Rc;
  }
  R.Name = Positional[1];
  if (R.Op == server::WireOp::Run) {
    R.Fn = Positional[2];
    for (size_t I = 3; I < Positional.size(); ++I)
      R.Args.push_back(std::strtoll(Positional[I], nullptr, 10));
  }
  Expected<std::string> Source = readFile(Positional[1]);
  if (!Source) {
    std::fprintf(stderr, "%s\n", Source.error().render().c_str());
    return ExitError;
  }
  R.Source = Source.take();
  return Serve(R);
}

/// Serves \p R in this process: the shared request handler over a fresh
/// build recorded into \p Trace.
int serveLocally(const server::WireRequest &R, TraceSession *Trace) {
  RunOutcome O = serveRequest(
      server::requestOp(R.Op), R,
      [Trace](std::string_view Source, const PipelineOptions &PO) {
        return buildArtifact(Source, PO, Trace);
      });
  std::fputs(O.Out.c_str(), stdout);
  std::fputs(O.Err.c_str(), stderr);
  return O.Exit;
}

int cmdMc(const char *Path, const char *Fn,
          const std::vector<int64_t> &Args, const Options &Opts,
          const std::optional<FaultPlan> &Plan, TraceSession *Trace) {
  SpawnList Spawns;
  if (!parseSpawns(Opts, Spawns))
    return ExitUsage;

  // --mc-checks=off composes with the user's --no-checks: exploration
  // runs with dynamic reservation checks erased, while the §6 invariant
  // validator below still machine-checks every intermediate state —
  // that asymmetry is the erasure-soundness gate. The exploring machine
  // is always the deterministic one, so the bytecode follows the checks.
  PipelineOptions PO = Opts.Req.Pipeline;
  bool EffChecks = PO.Checks && Opts.McChecksOn;
  PO.Checks = PO.EmitChecks = EffChecks;
  int Exit = 0;
  auto A = buildFile(Path, PO, Trace, Exit);
  if (!A)
    return Exit;
  const CompiledArtifact &Art = *A;
  const Pipeline &P = Art.P;

  // Resolve the entry and every --spawn up front (same int-argument
  // rule as `run`).
  std::vector<std::pair<Symbol, std::vector<Value>>> Roots;
  Roots.emplace_back();
  std::optional<std::string> Err =
      resolveCall(Art, Fn, Args, Roots.back().first, Roots.back().second);
  for (size_t I = 0; !Err && I < Spawns.size(); ++I) {
    Roots.emplace_back();
    Err = resolveCall(Art, Spawns[I].first, Spawns[I].second,
                      Roots.back().first, Roots.back().second);
  }
  if (Err) {
    std::fputs(Err->c_str(), stderr);
    return ExitError;
  }

  // The exploration runs on one machine and (when faults are armed) a
  // fresh injector, whose occurrence counters the machine's checkpoints
  // save and restore with the heap.
  std::unique_ptr<FaultInjector> InjSlot;
  mc::MachineFactory Factory = [&]() {
    if (Plan)
      InjSlot = std::make_unique<FaultInjector>(*Plan);
    MachineOptions MO;
    MO.CheckReservations = EffChecks;
    MO.StaticVerdicts = &Art.Verdicts;
    MO.ElideDisconnect = PO.Elide;
    MO.Faults = InjSlot.get();
    if (Art.VmCode)
      MO.VmCode = &*Art.VmCode;
    // The machine-checked gate: §6 invariant validators after every
    // small step of every explored execution, checks on or off.
    MO.StepValidator =
        [](const Machine &M) -> std::optional<std::string> {
      if (auto E = checkReservationsDisjoint(M))
        return E;
      if (auto E = checkStoredRefCounts(M.heap()))
        return E;
      return std::nullopt;
    };
    auto M = std::make_unique<Machine>(P.Checked, MO);
    for (const auto &[S, V] : Roots)
      M->spawn(S, std::vector<Value>(V));
    return M;
  };

  mc::McOptions MO;
  MO.MaxDepth = Opts.McDepth;
  MO.MaxSchedules = Opts.McSchedules;
  MO.PreemptionBound = Opts.McPreemptions;
  MO.UseDpor = Opts.McDpor;
  // An injected fault may legally kill one interleaving and not another,
  // so result divergence is only a violation in fault-free exploration.
  MO.CheckDivergence = !Plan;

  // Tracing: one mc.run span covering the whole exploration (the
  // exploring machine runs untraced — thousands of restored executions
  // would pile into the same ring buffers).
  TraceBuffer *TB = nullptr;
  uint64_t TraceStart = 0;
  if (Trace) {
    TB = &Trace->registerThread(4244, "mc");
    TraceStart = TB->now();
  }
  auto ExploreStart = std::chrono::steady_clock::now();
  Expected<mc::McReport> Rep = mc::explore(Factory, MO);
  uint64_t ExploreMicros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - ExploreStart)
          .count());
  if (TB)
    TB->record("mc.run", "mc", 'X', TraceStart, TB->now() - TraceStart);
  if (!Rep) {
    std::fprintf(stderr, "fearlessc: %s\n", Rep.error().Message.c_str());
    return ExitError;
  }

  if (Opts.Req.Metrics) {
    RuntimeMetrics M;
    M.McSchedulesExplored = Rep->SchedulesExplored;
    M.McSchedulesPruned = Rep->SchedulesPruned;
    M.McStatesFingerprinted = Rep->StatesFingerprinted;
    M.Steps = Rep->StepsExecuted;
    M.WallMicros = ExploreMicros;
    M.AnalysisMustDisconnected = Art.MustDisconnectedSites;
    M.AnalysisMustConnected = Art.MustConnectedSites;
    M.AnalysisUnknown = Art.UnknownSites;
    std::printf("%s\n", M.toJson().c_str());
  }

  if (Rep->Counterexample) {
    mc::McCounterexample &CE = *Rep->Counterexample;
    std::string Out =
        Opts.McOut.empty() ? std::string(Path) + ".sched" : Opts.McOut;
    // The schedule file carries its own provenance: the reason and the
    // exact replay command, as comments.
    std::string Replay = "fearlessc run " + std::string(Path) + " " + Fn;
    for (int64_t V : Args)
      Replay += " " + std::to_string(V);
    for (const std::string &Spec : Opts.SpawnSpecs)
      Replay += " --spawn " + Spec;
    if (!EffChecks)
      Replay += " --no-checks";
    if (PO.Engine != "vm")
      Replay += " --engine " + PO.Engine;
    if (Opts.FaultSpecSet)
      Replay += " --faults " + Opts.FaultSpec;
    Replay += " --schedule " + Out;
    size_t Pos = 0;
    while (Pos < CE.Reason.size()) {
      size_t Nl = CE.Reason.find('\n', Pos);
      if (Nl == std::string::npos)
        Nl = CE.Reason.size();
      if (Nl > Pos)
        CE.Sched.Comments.push_back(CE.Reason.substr(Pos, Nl - Pos));
      Pos = Nl + 1;
    }
    CE.Sched.Comments.push_back("replay: " + Replay);
    std::fprintf(stderr, "fearlessc: mc: counterexample: %s\n",
                 CE.Reason.c_str());
    if (!CE.BlockedDump.empty())
      std::fprintf(stderr, "%s\n", CE.BlockedDump.c_str());
    std::fprintf(stderr,
                 "mc: after %llu schedule(s) explored, %llu pruned\n",
                 static_cast<unsigned long long>(Rep->SchedulesExplored),
                 static_cast<unsigned long long>(Rep->SchedulesPruned));
    if (ExpectedVoid W = CE.Sched.writeFile(Out); !W) {
      std::fprintf(stderr, "fearlessc: %s\n", W.error().Message.c_str());
      return ExitError;
    }
    std::fprintf(stderr, "mc: counterexample schedule written to %s\n",
                 Out.c_str());
    std::fprintf(stderr, "mc: replay with: %s\n", Replay.c_str());
    return ExitCounterexample;
  }

  std::printf("mc: %s %s: explored %llu schedule(s), %llu pruned, %llu "
              "state(s) fingerprinted, max depth %llu, %llu step(s)\n",
              Path, Fn,
              static_cast<unsigned long long>(Rep->SchedulesExplored),
              static_cast<unsigned long long>(Rep->SchedulesPruned),
              static_cast<unsigned long long>(Rep->StatesFingerprinted),
              static_cast<unsigned long long>(Rep->MaxDepthSeen),
              static_cast<unsigned long long>(Rep->StepsExecuted));
  if (Rep->SchedulesBoundClipped)
    std::printf("mc: preemption bound left %llu branch(es) unexplored\n",
                static_cast<unsigned long long>(Rep->SchedulesBoundClipped));
  if (!Rep->Complete)
    std::printf("mc: warning: exploration incomplete: %s\n",
                Rep->Clipped.c_str());
  else
    std::printf("mc: no violations in the bounded schedule space\n");
  return 0;
}

int cmdDisasm(const char *Path, const Options &Opts, TraceSession *Trace) {
  PipelineOptions PO = Opts.Req.Pipeline;
  // Disassembly always shows the bytecode with the checks --no-checks
  // controls, independent of --workers.
  PO.Engine = "vm";
  PO.EmitChecks = PO.Checks;
  int Exit = 0;
  auto A = buildFile(Path, PO, Trace, Exit);
  if (!A)
    return Exit;
  std::fputs(vm::disassemble(*A->VmCode, A->P.Checked).c_str(), stdout);
  return 0;
}

int cmdSig(const char *Path, const Options &Opts, TraceSession *Trace) {
  int Exit = 0;
  auto A = buildFile(Path, Opts.Req.Pipeline, Trace, Exit);
  if (!A)
    return Exit;
  const Interner &Names = A->P.Prog->Names;
  for (const auto &[Name, Sig] : A->P.Checked.Signatures)
    std::printf("%s : %s\n", Names.spelling(Name).c_str(),
                toString(Sig, Names).c_str());
  return 0;
}

/// derive and dot: print \p Fn's typing derivation with \p Print.
int printDerivationOf(const char *Path, const char *Fn, const Options &Opts,
                      TraceSession *Trace,
                      std::string (*Print)(const Derivation &,
                                           const Interner &)) {
  int Exit = 0;
  auto A = buildFile(Path, Opts.Req.Pipeline, Trace, Exit);
  if (!A)
    return Exit;
  const Interner &Names = A->P.Prog->Names;
  auto It = A->P.Checked.Functions.find(Names.lookup(Fn));
  if (It == A->P.Checked.Functions.end() || !It->second.Deriv) {
    std::fprintf(stderr, "no derivation for '%s'\n", Fn);
    return 1;
  }
  std::printf("%s", Print(*It->second.Deriv, Names).c_str());
  return 0;
}

int cmdSample(const char *Name) {
  const char *Source = nullptr;
  for (const auto &[SName, SSource] : embeddedSamples())
    if (!std::strcmp(Name, SName))
      Source = SSource;
  if (!Source) {
    std::fprintf(stderr, "unknown sample '%s' (try sll, dll, rbtree, "
                         "message, trie, extras)\n",
                 Name);
    return 1;
  }
  std::fputs(Source, stdout);
  return 0;
}

//===----------------------------------------------------------------------===//
// --daemon client mode
//===----------------------------------------------------------------------===//

/// Prints a daemon response the way the standalone command would have:
/// the exact stdout/stderr bytes, or a synthesized diagnostic for
/// protocol-level errors (overloaded, shutting_down, bad_request — which
/// carry no output of their own).
int printResponse(const server::WireResponse &R) {
  if (!R.Out.empty())
    std::fputs(R.Out.c_str(), stdout);
  if (!R.Err.empty())
    std::fputs(R.Err.c_str(), stderr);
  if (!R.Ok && R.Out.empty() && R.Err.empty())
    std::fprintf(stderr, "fearlessc: daemon: %s: %s\n",
                 R.ErrorCode.c_str(), R.ErrorMessage.c_str());
  return R.Exit;
}

/// Serves the command through the fearlessd instance at --daemon.
/// \p FaultsArmed: a fault plan (--faults or FEARLESS_FAULTS) is armed
/// for a command that executes; the daemon cannot inject it, so the
/// invocation is refused rather than silently run fault-free.
int cmdDaemon(const std::vector<const char *> &Positional, Options &Opts,
              bool FaultsArmed) {
  if (!Opts.TracePath.empty() || Opts.FaultSpecSet || FaultsArmed) {
    std::fprintf(stderr, "fearlessc: --trace and --faults are local "
                         "debugging hooks; they do not compose with "
                         "--daemon\n");
    return ExitUsage;
  }
  if (!Opts.SchedulePath.empty() || !Opts.SpawnSpecs.empty() ||
      !std::strcmp(Positional[0], "mc")) {
    std::fprintf(stderr, "fearlessc: mc, --schedule, and --spawn drive "
                         "the local deterministic machine; they do not "
                         "compose with --daemon\n");
    return ExitUsage;
  }
  std::optional<server::WireOp> Op = server::parseOp(Positional[0]);
  if (!Op)
    return usage();
  server::WireClient Client;
  if (ExpectedVoid C = Client.connect(Opts.DaemonSocket); !C) {
    std::fprintf(stderr, "fearlessc: %s\n",
                 C.error().Message.c_str());
    return ExitError;
  }
  auto RoundTrip = [&](const server::WireRequest &R) {
    Expected<server::WireResponse> Resp = Client.request(R);
    if (!Resp) {
      std::fprintf(stderr, "fearlessc: %s\n",
                   Resp.error().Message.c_str());
      return ExitError;
    }
    return printResponse(*Resp);
  };
  Opts.Req.Op = *Op;
  if (*Op == server::WireOp::Metrics || *Op == server::WireOp::Shutdown)
    return Positional.size() == 1 ? RoundTrip(Opts.Req) : usage();
  return serveCommand(Positional, Opts.Req, RoundTrip);
}

/// Dispatches a standalone command; \p Trace, when set, receives the
/// compiler lane of every build and the execution engines' events.
int runCommand(const std::vector<const char *> &Positional, Options &Opts,
               const std::optional<FaultPlan> &Plan, TraceSession *Trace) {
  const char *Cmd = Positional[0];
  std::optional<server::WireOp> Op = server::parseOp(Cmd);
  if (Op && *Op != server::WireOp::Metrics &&
      *Op != server::WireOp::Shutdown) {
    server::WireRequest &R = Opts.Req;
    R.Op = *Op;
    // run's --spawn / --schedule: resolved up front so a malformed spec
    // or an unreadable/corrupt schedule file is a clean error before any
    // work.
    std::optional<mc::Schedule> Sched;
    if (*Op == server::WireOp::Run) {
      if (!parseSpawns(Opts, R.Spawns))
        return ExitUsage;
      if (!Opts.SchedulePath.empty()) {
        Expected<mc::Schedule> S = mc::Schedule::loadFile(Opts.SchedulePath);
        if (!S) {
          std::fprintf(stderr, "fearlessc: %s\n", S.error().Message.c_str());
          return ExitUsage;
        }
        R.Schedule = &Sched.emplace(S.take());
      }
    }
    std::optional<FaultInjector> Faults;
    if (Plan)
      R.Faults = &Faults.emplace(*Plan);
    R.Trace = Trace;
    return serveCommand(Positional, R, [Trace](const server::WireRequest &Q) {
      return serveLocally(Q, Trace);
    });
  }
  auto IntArgs = [&] {
    std::vector<int64_t> Args;
    for (size_t I = 3; I < Positional.size(); ++I)
      Args.push_back(std::strtoll(Positional[I], nullptr, 10));
    return Args;
  };
  if (!std::strcmp(Cmd, "mc") && Positional.size() >= 2)
    return cmdMc(Positional[1],
                 Positional.size() >= 3 ? Positional[2] : "main", IntArgs(),
                 Opts, Plan, Trace);
  if (!std::strcmp(Cmd, "disasm") && Positional.size() == 2)
    return cmdDisasm(Positional[1], Opts, Trace);
  if (!std::strcmp(Cmd, "sig") && Positional.size() == 2)
    return cmdSig(Positional[1], Opts, Trace);
  if (!std::strcmp(Cmd, "derive") && Positional.size() == 3)
    return printDerivationOf(Positional[1], Positional[2], Opts, Trace,
                             printDerivation);
  if (!std::strcmp(Cmd, "dot") && Positional.size() == 3)
    return printDerivationOf(Positional[1], Positional[2], Opts, Trace,
                             printDerivationDot);
  if (!std::strcmp(Cmd, "sample") && Positional.size() == 2)
    return cmdSample(Positional[1]);
  return usage();
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();

  Options Opts;
  std::vector<const char *> Positional;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--no-oracle"))
      Opts.Req.Pipeline.UseOracle = false;
    else if (!std::strcmp(argv[I], "--no-checks"))
      Opts.Req.Pipeline.Checks = false;
    else if (!std::strcmp(argv[I], "--no-elide"))
      Opts.Req.Pipeline.Elide = false;
    else if (!std::strcmp(argv[I], "--interprocedural"))
      Opts.Req.Pipeline.Interprocedural = true;
    else if (!std::strncmp(argv[I], "--interprocedural=", 18)) {
      const char *V = argv[I] + 18;
      if (!std::strcmp(V, "on"))
        Opts.Req.Pipeline.Interprocedural = true;
      else if (!std::strcmp(V, "off"))
        Opts.Req.Pipeline.Interprocedural = false;
      else {
        std::fprintf(stderr,
                     "fearlessc: bad --interprocedural value '%s' "
                     "(expected on or off)\n",
                     V);
        return ExitUsage;
      }
    } else if (!std::strcmp(argv[I], "--json"))
      Opts.Req.Analysis.Json = true;
    else if (!std::strcmp(argv[I], "--summaries"))
      Opts.Req.Analysis.DumpSummaries = true;
    else if (!std::strcmp(argv[I], "--werror"))
      Opts.Req.Werror = true;
    else if (!std::strcmp(argv[I], "--stats"))
      Opts.Req.Stats = true;
    else if (!std::strcmp(argv[I], "--metrics"))
      Opts.Req.Metrics = true;
    else if (!std::strcmp(argv[I], "--trace") && I + 1 < argc)
      Opts.TracePath = argv[++I];
    else if (!std::strcmp(argv[I], "--faults") && I + 1 < argc) {
      Opts.FaultSpec = argv[++I];
      Opts.FaultSpecSet = true;
    } else if (!std::strcmp(argv[I], "--seed") && I + 1 < argc)
      Opts.Req.Seed = std::strtoull(argv[++I], nullptr, 10);
    else if (!std::strcmp(argv[I], "--workers") && I + 1 < argc)
      Opts.Req.Workers = std::strtoull(argv[++I], nullptr, 10);
    else if (!std::strcmp(argv[I], "--sched-seed") && I + 1 < argc)
      Opts.Req.SchedSeed = std::strtoull(argv[++I], nullptr, 10);
    else if (!std::strcmp(argv[I], "--spawn") && I + 1 < argc)
      Opts.SpawnSpecs.push_back(argv[++I]);
    else if (!std::strcmp(argv[I], "--schedule") && I + 1 < argc)
      Opts.SchedulePath = argv[++I];
    else if (!std::strcmp(argv[I], "--mc-depth") && I + 1 < argc)
      Opts.McDepth = std::strtoull(argv[++I], nullptr, 10);
    else if (!std::strcmp(argv[I], "--mc-schedules") && I + 1 < argc)
      Opts.McSchedules = std::strtoull(argv[++I], nullptr, 10);
    else if (!std::strcmp(argv[I], "--mc-preemptions") && I + 1 < argc)
      Opts.McPreemptions = std::strtoll(argv[++I], nullptr, 10);
    else if (!std::strncmp(argv[I], "--mc-checks=", 12)) {
      const char *V = argv[I] + 12;
      if (!std::strcmp(V, "on"))
        Opts.McChecksOn = true;
      else if (!std::strcmp(V, "off"))
        Opts.McChecksOn = false;
      else {
        std::fprintf(stderr,
                     "fearlessc: bad --mc-checks value '%s' (expected "
                     "on or off)\n",
                     V);
        return ExitUsage;
      }
    } else if (!std::strncmp(argv[I], "--mc-dpor=", 10)) {
      const char *V = argv[I] + 10;
      if (!std::strcmp(V, "on"))
        Opts.McDpor = true;
      else if (!std::strcmp(V, "off"))
        Opts.McDpor = false;
      else {
        std::fprintf(stderr,
                     "fearlessc: bad --mc-dpor value '%s' (expected on "
                     "or off)\n",
                     V);
        return ExitUsage;
      }
    } else if (!std::strcmp(argv[I], "--mc-out") && I + 1 < argc)
      Opts.McOut = argv[++I];
    else if (!std::strcmp(argv[I], "--engine") && I + 1 < argc)
      Opts.Req.Pipeline.Engine = argv[++I];
    else if (!std::strncmp(argv[I], "--engine=", 9))
      Opts.Req.Pipeline.Engine = argv[I] + 9;
    else if (!std::strcmp(argv[I], "--daemon") && I + 1 < argc)
      Opts.DaemonSocket = argv[++I];
    else
      Positional.push_back(argv[I]);
  }
  const std::string &Engine = Opts.Req.Pipeline.Engine;
  if (Engine != "vm" && Engine != "interp") {
    std::fprintf(stderr, "fearlessc: unknown engine '%s' (expected vm "
                         "or interp)\n",
                 Engine.c_str());
    return ExitUsage;
  }
  if (Positional.empty())
    return usage();

  const char *Cmd = Positional[0];
  if (Opts.Req.Metrics && std::strcmp(Cmd, "run") && std::strcmp(Cmd, "mc")) {
    std::fprintf(stderr,
                 "fearlessc: --metrics reports what a run executed; "
                 "'%s' executes nothing (use it with run or mc)\n",
                 Cmd);
    return ExitUsage;
  }
  bool IsRun = !std::strcmp(Cmd, "run");
  if ((IsRun && Positional.size() < 3) ||
      ((!std::strcmp(Cmd, "check") || !std::strcmp(Cmd, "analyze")) &&
       Positional.size() != 2))
    return usage();
  // The fault plan of the commands that execute, resolved once: a
  // malformed spec is an invocation error before any work, and an armed
  // plan cannot be honored by the daemon.
  std::optional<FaultPlan> Plan;
  if ((IsRun || !std::strcmp(Cmd, "mc")) && !resolveFaultPlan(Opts, Plan))
    return ExitUsage;
  if (!Opts.DaemonSocket.empty())
    return cmdDaemon(Positional, Opts, Plan.has_value());

  TraceSink Sink{Opts.TracePath, {}};
  if (!Sink.open())
    return ExitError;
  int Rc = runCommand(Positional, Opts, Plan,
                      Opts.TracePath.empty() ? nullptr : &Sink.Session);
  return Sink.write() ? Rc : ExitError;
}

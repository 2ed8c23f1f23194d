//===- driver/CompilePipeline.cpp -----------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "driver/CompilePipeline.h"

#include "concurrency/ParallelExec.h"
#include "mc/Replay.h"
#include "parser/Parser.h"
#include "runtime/Machine.h"
#include "support/FaultInjector.h"
#include "support/Trace.h"

#include <cstdio>

using namespace fearless;

uint64_t PipelineOptions::fingerprint() const {
  uint64_t F = 0;
  F |= UseOracle ? 1u : 0u;
  F |= Interprocedural ? 2u : 0u;
  F |= Checks ? 4u : 0u;
  F |= Elide ? 8u : 0u;
  F |= EmitChecks ? 16u : 0u;
  F |= (Engine == "vm" ? 32u : 0u);
  // Mix so distinct flag sets land far apart in the cache key space.
  F *= 0x9E3779B97F4A7C15ull;
  F ^= F >> 32;
  return F;
}

size_t CompiledArtifact::approxBytes() const {
  // The AST, typing derivations, analysis report, and constant pools are
  // all within a small constant factor of the source length for real
  // programs; the bytecode is measured exactly. The multiplier is
  // deliberately generous — the cache budget is a ceiling, not a ledger.
  size_t Bytes = SourceBytes * 24 + 4096;
  if (VmCode) {
    for (const vm::Chunk &C : VmCode->Chunks)
      Bytes += C.Code.size() * sizeof(vm::Instr) +
               C.Constants.size() * sizeof(Value);
  }
  return Bytes;
}

Expected<std::shared_ptr<const CompiledArtifact>>
fearless::buildArtifact(std::string_view Source,
                        const PipelineOptions &Opts, TraceSession *Trace) {
  // One lane carries the stage spans of this build.
  TraceBuffer *TB =
      Trace ? &Trace->registerThread(4242, "compiler") : nullptr;
  auto A = std::make_shared<CompiledArtifact>();
  A->Options = Opts;
  A->SourceBytes = Source.size();
  Pipeline &P = A->P;

  DiagnosticEngine Diags;
  std::optional<Program> Parsed = [&] {
    TraceSpan Span(TB, "pipeline.parse", "pipeline");
    return parseProgram(Source, Diags);
  }();
  if (!Parsed) {
    Failure F = fail(Diags.renderAll());
    F.Diag.Stage = DiagnosticStage::Parse;
    return F;
  }
  P.Prog = std::make_unique<Program>(std::move(*Parsed));

  // Checker and verifier rejections share the check-stage exit code.
  auto CheckStage = [](Failure F) {
    F.Diag.Stage = DiagnosticStage::Check;
    return F;
  };
  CheckerOptions CO;
  CO.UseLivenessOracle = Opts.UseOracle;
  Expected<CheckedProgram> Checked = [&] {
    TraceSpan Span(TB, "pipeline.check", "pipeline");
    return checkProgram(*P.Prog, CO);
  }();
  if (!Checked)
    return CheckStage(Checked.takeFailure());
  P.Checked = Checked.take();

  Expected<VerifyStats> Verified = [&] {
    TraceSpan Span(TB, "pipeline.verify", "pipeline");
    return verifyProgram(P.Checked);
  }();
  if (!Verified)
    return CheckStage(Verified.takeFailure());
  P.Verified = *Verified;

  AnalysisOptions AO;
  AO.Interprocedural = Opts.Interprocedural;
  {
    TraceSpan Span(TB, "pipeline.analyze", "pipeline");
    A->Report = analyzeProgram(P.Checked, AO);
  }
  A->Verdicts = A->Report.verdictTable();
  std::array<size_t, 3> Counts = A->Report.verdictCounts();
  using V = DisconnectVerdict;
  A->MustDisconnectedSites = Counts[size_t(V::MustDisconnected)];
  A->MustConnectedSites = Counts[size_t(V::MustConnected)];
  A->UnknownSites = Counts[size_t(V::Unknown)];

  if (Opts.Engine == "vm") {
    vm::CompileOptions VO;
    VO.EmitChecks = Opts.EmitChecks;
    VO.Verdicts = &A->Verdicts;
    VO.ElideDisconnect = Opts.Elide;
#ifndef NDEBUG
    VO.CrossCheckElision = true;
#endif
    Expected<vm::CompiledProgram> Code = [&] {
      TraceSpan Span(TB, "vm.compile", "vm");
      return vm::compileProgram(P.Checked, VO);
    }();
    if (!Code)
      return Code.takeFailure();
    A->VmCode.emplace(Code.take());
  }
  return std::shared_ptr<const CompiledArtifact>(std::move(A));
}

std::string fearless::renderCheckOutput(const CompiledArtifact &A,
                                        std::string_view DisplayName,
                                        bool Stats) {
  std::string Out(DisplayName);
  Out += ": OK (" + std::to_string(A.P.Checked.Functions.size()) +
         " functions)\n";
  // Checker-integrated warnings: always/never-taken disconnect branches
  // found by the static region-graph analysis.
  std::vector<AnalysisDiag> Warnings;
  for (const AnalysisDiag &D : A.Report.Diags)
    if (D.Kind == AnalysisDiagKind::DeadBranch ||
        D.Kind == AnalysisDiagKind::NeverPopulated)
      Warnings.push_back(D);
  if (!Warnings.empty())
    Out += renderDiags(Warnings, DisplayName);
  if (Stats) {
    size_t Virtuals = 0, Unify = 0, Loops = 0;
    for (const auto &[Name, Fn] : A.P.Checked.Functions) {
      (void)Name;
      Virtuals += Fn.Stats.VirtualSteps;
      Unify += Fn.Stats.UnifyCandidates;
      Loops += Fn.Stats.LoopIterations;
    }
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "functions: %zu, virtual transformations: %zu, "
                  "unification candidates: %zu, loop refinements: %zu\n"
                  "verifier: %zu derivation steps (%zu virtual) "
                  "re-checked\n",
                  A.P.Checked.Functions.size(), Virtuals, Unify, Loops,
                  A.P.Verified.StepsChecked,
                  A.P.Verified.VirtualStepsChecked);
    Out += Buf;
  }
  return Out;
}

/// The analyze report of a build: the artifact's, or the fallback's.
static SourceAnalysis
analyzeBuild(const Expected<std::shared_ptr<const CompiledArtifact>> &Built,
             std::string_view Source, std::string_view FileName,
             const SourceAnalysisOptions &Opts) {
  if (!Built)
    return renderRejectedAnalysis(Source, Built.error(), FileName, Opts);
  return renderAnalysis((*Built)->P.Checked, (*Built)->Report, FileName,
                        Opts);
}

RunOutcome fearless::serveRequest(RequestOp Op, const Request &R,
                                  const ArtifactGetter &Get) {
  // Every op builds the same artifact: analyze's rendering options
  // never change what is built.
  PipelineOptions PO = R.Pipeline;
  PO.EmitChecks = PO.Checks && !R.Workers;
  Expected<std::shared_ptr<const CompiledArtifact>> Built =
      Get(R.Source, PO);
  RunOutcome O;
  if (Op == RequestOp::Analyze) {
    SourceAnalysisOptions AO = R.Analysis;
    AO.Interprocedural = PO.Interprocedural;
    SourceAnalysis A = analyzeBuild(Built, R.Source, R.Name, AO);
    O.Out = std::move(A.Rendered);
    if (A.HardError) {
      O.Exit = exitCodeForStage(DiagnosticStage::Parse);
    } else if (R.Werror && A.LintDiags > 0) {
      // Lints are check-stage findings, so --werror exits with the
      // check-stage code — scripts can distinguish "region misuse" from
      // infrastructure failures without parsing messages.
      O.Err = "fearlessc: error: " + std::to_string(A.LintDiags) +
              " lint diagnostic(s) with --werror\n";
      O.Exit = exitCodeForStage(DiagnosticStage::Check);
    }
    return O;
  }
  if (!Built) {
    O.Err = Built.error().render() + "\n";
    O.Exit = exitCodeForStage(Built.error().Stage);
    return O;
  }
  if (Op == RequestOp::Check) {
    O.Out = renderCheckOutput(**Built, R.Name, R.Stats);
    return O;
  }
  return runArtifact(**Built, R);
}

SourceAnalysis fearless::analyzeSourceText(std::string_view Source,
                                           std::string_view FileName,
                                           const SourceAnalysisOptions &Opts) {
  PipelineOptions PO;
  PO.Interprocedural = Opts.Interprocedural;
  return analyzeBuild(buildArtifact(Source, PO), Source, FileName, Opts);
}

int fearless::exitCodeForStage(DiagnosticStage Stage) {
  switch (Stage) {
  case DiagnosticStage::Parse:
    return 3;
  case DiagnosticStage::Check:
    return 4;
  case DiagnosticStage::Runtime:
    return 5;
  case DiagnosticStage::Unknown:
    break;
  }
  return 1;
}

std::optional<std::string>
fearless::resolveCall(const CompiledArtifact &A, const std::string &Fn,
                      const std::vector<int64_t> &Args, Symbol &Sym,
                      std::vector<Value> &Values) {
  const Program &Prog = *A.P.Prog;
  Sym = Prog.Names.lookup(Fn);
  const FnDecl *Decl = Prog.findFunction(Sym);
  if (!Decl)
    return "no function '" + Fn + "'\n";
  if (Decl->Params.size() != Args.size())
    return "'" + Fn + "' takes " + std::to_string(Decl->Params.size()) +
           " arguments, got " + std::to_string(Args.size()) +
           " (only int arguments are supported from the CLI)\n";
  for (size_t I = 0; I < Args.size(); ++I) {
    if (!(Decl->Params[I].ParamType == Type::intTy()))
      return "parameter " + std::to_string(I) + " of '" + Fn +
             "' is not int\n";
    Values.push_back(Value::intVal(Args[I]));
  }
  return std::nullopt;
}

RunOutcome fearless::runArtifact(const CompiledArtifact &A,
                                 const RunSpec &Spec) {
  RunOutcome O;
  const Pipeline &P = A.P;

  Symbol Entry;
  std::vector<Value> Values;
  std::optional<std::string> Err =
      resolveCall(A, Spec.Fn, Spec.Args, Entry, Values);
  std::vector<std::pair<Symbol, std::vector<Value>>> ExtraSpawns;
  for (size_t I = 0; !Err && I < Spec.Spawns.size(); ++I) {
    auto &[S, V] = ExtraSpawns.emplace_back();
    Err = resolveCall(A, Spec.Spawns[I].first, Spec.Spawns[I].second, S, V);
  }
  if (Err) {
    O.Err = std::move(*Err);
    O.Exit = 1;
    return O;
  }
  if (Spec.Workers && (!Spec.Spawns.empty() || Spec.Schedule)) {
    O.Err = "--spawn and --schedule drive the deterministic machine and "
            "cannot combine with --workers\n";
    O.Exit = 2;
    return O;
  }

  // The verdict split goes out with --metrics so runs record how much of
  // the elision the analysis could prove (the engines never see these;
  // they are compile-time facts).
  auto WithAnalysis = [&](RuntimeMetrics M) {
    M.AnalysisMustDisconnected = A.MustDisconnectedSites;
    M.AnalysisMustConnected = A.MustConnectedSites;
    M.AnalysisUnknown = A.UnknownSites;
    return M;
  };
  bool UseVm = A.VmCode.has_value();

  // --workers: hand the entry function to the parallel executor (the
  // M:N task scheduler; dynamic checks erased, as for any checked
  // program) instead of the deterministic abstract machine.
  if (Spec.Workers) {
    ParallelExecOptions PO;
    PO.NumWorkers = *Spec.Workers;
    PO.SchedSeed = Spec.SchedSeed;
    PO.Faults = Spec.Faults;
    if (UseVm)
      PO.VmCode = &*A.VmCode;
    PO.Trace = Spec.Trace;
    ParallelExec Exec(P.Checked, PO);
    Exec.spawn(Entry, std::move(Values));
    Expected<std::vector<Value>> R = Exec.run();
    O.Metrics = WithAnalysis(Exec.metrics());
    O.HasMetrics = true;
    if (!R) {
      O.Err = R.error().render() + "\n";
      if (Spec.Metrics)
        O.Out += O.Metrics.toJson() + "\n";
      O.Exit = Exec.metrics().FaultsEscalated ? 5 : 1;
      return O;
    }
    O.Out = Spec.Fn + "(...) = " + toString((*R)[0]) + "\n";
    if (Spec.Metrics)
      O.Out += O.Metrics.toJson() + "\n";
    return O;
  }

  MachineOptions MO;
  MO.CheckReservations = A.Options.Checks;
  MO.StaticVerdicts = &A.Verdicts;
  MO.ElideDisconnect = A.Options.Elide;
  MO.Faults = Spec.Faults;
  if (UseVm)
    MO.VmCode = &*A.VmCode;
  MO.Trace = Spec.Trace;
  Machine M(P.Checked, MO);
  std::vector<Value> InterpValues = Values; // for the debug cross-check
  M.spawn(Entry, std::move(Values));
  for (auto &[S, V] : ExtraSpawns)
    M.spawn(S, std::move(V));
  Expected<MachineSummary> R =
      Spec.Schedule ? mc::runSchedule(M, *Spec.Schedule)
                    : M.run(Spec.Seed);

#ifndef NDEBUG
  // Debug builds: re-run the VM result through the tree-walking
  // interpreter and fail loudly on divergence — the two engines are
  // differential oracles for each other. Skipped under fault injection
  // (the injector's triggers are stateful and would fire differently on
  // the second run) and under --spawn/--schedule (the engines batch
  // decision points differently, so a recorded schedule only replays on
  // the engine that recorded it, and multi-root results are
  // schedule-relative).
  if (UseVm && R && !Spec.Faults && !Spec.Schedule &&
      ExtraSpawns.empty()) {
    MachineOptions IO = MO;
    IO.VmCode = nullptr;
    IO.Trace = nullptr;
    Machine IM(P.Checked, IO);
    IM.spawn(Entry, std::move(InterpValues));
    Expected<MachineSummary> IR = IM.run(Spec.Seed);
    if (!IR || !(IR->ThreadResults[0] == R->ThreadResults[0])) {
      O.Err = "fearlessc: engine divergence: vm produced " +
              (R ? toString(R->ThreadResults[0]) : std::string("<error>")) +
              ", interpreter produced " +
              (IR ? toString(IR->ThreadResults[0])
                  : IR.error().render()) +
              "\n";
      O.Exit = 1;
      return O;
    }
  }
#endif
  O.Metrics = WithAnalysis(M.metrics());
  O.HasMetrics = true;
  if (!R) {
    // A structured fault (runtime trap or injection) gets the dedicated
    // diagnostic and exit code; other failures (deadlock, violation,
    // step limit) stay generic.
    if (M.lastFault()) {
      O.Err = "fearlessc: " + M.lastFault()->render() + "\n";
      if (Spec.Metrics)
        O.Out += O.Metrics.toJson() + "\n";
      O.Exit = 5;
      return O;
    }
    O.Err = R.error().render() + "\n";
    O.Exit = 1;
    return O;
  }
  O.Out = Spec.Fn + "(...) = " + toString(R->ThreadResults[0]) + "\n";
  for (size_t I = 0; I < Spec.Spawns.size(); ++I)
    if (I + 1 < R->ThreadResults.size())
      O.Out += Spec.Spawns[I].first + "(...) = " +
               toString(R->ThreadResults[I + 1]) + "\n";
  if (Spec.Stats) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "steps: %llu, reservation checks: %llu, allocations: "
                  "%llu, disconnect checks: %llu\n",
                  static_cast<unsigned long long>(R->Steps),
                  static_cast<unsigned long long>(
                      M.stats().ReservationChecks),
                  static_cast<unsigned long long>(M.stats().Allocations),
                  static_cast<unsigned long long>(
                      M.stats().DisconnectChecks));
    O.Out += Buf;
  }
  if (Spec.Metrics)
    O.Out += O.Metrics.toJson() + "\n";
  return O;
}

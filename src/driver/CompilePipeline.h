//===- driver/CompilePipeline.h - Shared compile/run pipeline ---*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reusable front half of `fearlessc` — parse + check + verify +
/// static analysis + bytecode lowering bundled into one immutable
/// CompiledArtifact — and the back half: executing an artifact and
/// rendering exactly the text the CLI prints. serveRequest joins the two
/// into the one request handler behind `check`, `analyze` and `run`:
/// standalone fearlessc and the `fearlessd` daemon (server/Server.h)
/// both call it with the same Request value and differ only in how the
/// artifact is obtained, so client-mode runs and standalone runs compare
/// equal byte for byte because they are the same code path, not a
/// re-implementation.
///
/// A CompiledArtifact is a pure function of (source text, options): it
/// holds no execution state, every run constructs its own Machine or
/// ParallelExec over it, and concurrent runs may share one artifact —
/// that is what makes the daemon's derivation cache
/// (server/DerivationCache.h) sound.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_DRIVER_COMPILEPIPELINE_H
#define FEARLESS_DRIVER_COMPILEPIPELINE_H

#include "analysis/StaticDisconnect.h"
#include "checker/Checker.h"
#include "driver/Driver.h"
#include "support/Metrics.h"
#include "verifier/Verifier.h"
#include "vm/Compiler.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fearless {

class FaultInjector;
class TraceSession;
namespace mc {
struct Schedule;
}

/// Everything that changes what buildArtifact produces. The fingerprint
/// joins the source hash in the derivation-cache key, so two requests
/// with different options never share an artifact.
struct PipelineOptions {
  /// Checker liveness oracle (§5.1); --no-oracle turns it off.
  bool UseOracle = true;
  /// Interprocedural summaries at analysis call sites (PR 8).
  bool Interprocedural = true;
  /// Dynamic reservation checks: Machine-mode check emission and the
  /// checked-vs-erased VM codegen mode (--no-checks turns off).
  bool Checks = true;
  /// Elide statically proven `if disconnected` traversals (--no-elide
  /// turns off).
  bool Elide = true;
  /// Emit reservation-check ops into the bytecode. serveRequest derives
  /// it as `Checks && !Workers` (the parallel executors always run
  /// erased — the checker proved the checks redundant).
  bool EmitChecks = true;
  /// Execution engine: "vm" (register bytecode, default) or "interp"
  /// (tree-walking interpreter). "interp" skips bytecode lowering.
  std::string Engine = "vm";

  /// Stable 64-bit fingerprint of every field above.
  uint64_t fingerprint() const;
};

/// The front end's product: the parsed program (owned), its checked
/// typing derivations, and what the verifier re-checked.
struct Pipeline {
  std::unique_ptr<Program> Prog;
  CheckedProgram Checked;
  VerifyStats Verified;
};

/// The immutable product of the compile pipeline: AST + checked program
/// + verifier stats (Pipeline), the static region-graph analysis report
/// and its runtime verdict table, and (for the vm engine) the compiled
/// bytecode. Shared read-only by concurrent runs.
struct CompiledArtifact {
  Pipeline P;
  AnalysisReport Report;
  DisconnectVerdictTable Verdicts;
  /// Present iff Options.Engine == "vm".
  std::optional<vm::CompiledProgram> VmCode;
  /// The verdict split, stamped into --metrics output by runs.
  uint64_t MustDisconnectedSites = 0;
  uint64_t MustConnectedSites = 0;
  uint64_t UnknownSites = 0;
  /// The options the artifact was built under.
  PipelineOptions Options;
  /// Length of the source text the artifact was built from (cache
  /// accounting input).
  size_t SourceBytes = 0;

  /// Conservative estimate of resident bytes for cache budgeting: the
  /// AST, derivations, verdict table, and chunks all scale with source
  /// length, so the estimate is a calibrated multiple of it plus the
  /// bytecode pool actually measured.
  size_t approxBytes() const;
};

/// The one way from source text to a checked program: parse + sema +
/// check + verify (every derivation the checker emits is re-checked) +
/// analyze (+ vm lowering for the vm engine) over \p Source. \p Trace,
/// when set, records one span per stage — `pipeline.parse`,
/// `pipeline.check`, `pipeline.verify`, `pipeline.analyze` and
/// `vm.compile` — on a dedicated `compiler` lane. Failures carry the
/// DiagnosticStage that maps to the CLI exit-code table: Parse for
/// syntax errors, Check for a checker or verifier rejection.
Expected<std::shared_ptr<const CompiledArtifact>>
buildArtifact(std::string_view Source, const PipelineOptions &Opts = {},
              TraceSession *Trace = nullptr);

/// What to execute and what to report. Everything `fearlessc run`
/// accepts except the artifact-level options above.
struct RunSpec {
  std::string Fn = "main";
  std::vector<int64_t> Args;
  /// Machine schedule seed (--seed).
  uint64_t Seed = 0;
  /// --workers N: run on ParallelExec's M:N task scheduler with an
  /// N-worker pool (0 = auto); unset = the deterministic machine.
  std::optional<size_t> Workers;
  uint64_t SchedSeed = 0;
  /// Append the --stats / --metrics lines to Out (check: the --stats
  /// block of renderCheckOutput).
  bool Stats = false;
  bool Metrics = false;
  /// Deterministic fault injection; null = disabled. Must outlive the
  /// call.
  FaultInjector *Faults = nullptr;
  /// Structured tracing for the execution engines; null = disabled.
  /// Must outlive the call.
  TraceSession *Trace = nullptr;
  /// Extra threads spawned alongside the entry (--spawn FN[:a,b,...],
  /// repeatable, in order). Machine mode only: this is how the CLI puts
  /// several root threads into the deterministic machine so `mc` and
  /// `run --schedule` have a schedule space to explore.
  std::vector<std::pair<std::string, std::vector<int64_t>>> Spawns;
  /// Replay a recorded schedule (--schedule FILE) instead of seeding the
  /// machine's own picker. Machine mode only; must outlive the call.
  const mc::Schedule *Schedule = nullptr;
};

/// One executed request: the exact bytes the CLI would print to stdout
/// (Out) and stderr (Err), the documented exit code, and the run's
/// metrics (valid when HasMetrics — compile-stage failures have none).
struct RunOutcome {
  int Exit = 0;
  std::string Out;
  std::string Err;
  RuntimeMetrics Metrics;
  bool HasMetrics = false;
};

/// Looks up \p Fn in \p A and converts \p Args to its parameters (ints
/// only, as the CLI passes them); on failure returns the CLI's error
/// line. Never inserts into the artifact's interner, so concurrent runs
/// may share \p A.
std::optional<std::string> resolveCall(const CompiledArtifact &A,
                                       const std::string &Fn,
                                       const std::vector<int64_t> &Args,
                                       Symbol &Sym,
                                       std::vector<Value> &Values);

/// Executes \p Spec.Fn over \p A on the engine the artifact was built
/// for. Never throws and never prints: all text lands in the outcome.
RunOutcome runArtifact(const CompiledArtifact &A, const RunSpec &Spec);

/// Renders `fearlessc check` output for \p A: the OK line (using
/// \p DisplayName verbatim), the analysis warnings, and optionally the
/// --stats block. Shared by the CLI and the daemon so both emit
/// identical bytes.
std::string renderCheckOutput(const CompiledArtifact &A,
                              std::string_view DisplayName,
                              bool Stats = false);

/// The requests serveRequest answers.
enum class RequestOp : uint8_t { Check, Analyze, Run };

/// One `check`, `analyze` or `run` request: fearlessc parses argv
/// straight into it, and fearlessd decodes it off the wire
/// (server::WireRequest extends it with the op and correlation id). The
/// run fields (Fn, Args, ...) are inherited from RunSpec; its pointer
/// fields are local hooks that never cross the wire.
struct Request : RunSpec {
  /// Display name for diagnostics (the file path).
  std::string Name;
  /// The program text.
  std::string Source;
  /// Build options (EmitChecks is derived by serveRequest).
  PipelineOptions Pipeline;
  /// analyze: rendering options (Interprocedural follows Pipeline's).
  SourceAnalysisOptions Analysis;
  /// analyze: lint diagnostics fail with the check-stage exit code.
  bool Werror = false;
};

/// How serveRequest obtains the artifact for (source, options): the CLI
/// builds it with buildArtifact, the daemon looks it up in its
/// derivation cache.
using ArtifactGetter =
    std::function<Expected<std::shared_ptr<const CompiledArtifact>>(
        std::string_view Source, const PipelineOptions &Opts)>;

/// The one request handler behind `check`, `analyze` and `run`, shared
/// by fearlessc and fearlessd: derives the build options from \p R,
/// obtains the artifact through \p Get, and renders exactly what the
/// CLI prints — the compile diagnostic, renderCheckOutput, the analyze
/// report, or runArtifact's outcome. analyze renders the artifact's
/// report, or for a failed build the re-parse / re-resolve fallback
/// (renderRejectedAnalysis); it exits 3 for a parse or resolution
/// failure and, with R.Werror, 4 with a note on stderr when lints fired.
RunOutcome serveRequest(RequestOp Op, const Request &R,
                        const ArtifactGetter &Get);

/// `fearlessc analyze` of \p Source under default pipeline options
/// (Opts.Interprocedural aside): the report serveRequest renders for
/// analyze.
SourceAnalysis analyzeSourceText(std::string_view Source,
                                 std::string_view FileName,
                                 const SourceAnalysisOptions &Opts = {});

/// The documented exit code for a pipeline diagnostic (0 ok, 1 generic,
/// 2 usage, 3 parse, 4 check/verify, 5 runtime fault). One table,
/// shared by fearlessc, fearlessd, and the wire protocol's error codes.
int exitCodeForStage(DiagnosticStage Stage);

} // namespace fearless

#endif // FEARLESS_DRIVER_COMPILEPIPELINE_H

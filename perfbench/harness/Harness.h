//===- perfbench/harness/Harness.h - Shared benchmark plumbing --*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the end-to-end benchmark shares: the command
/// line, a seeded generator, order statistics, the result record that
/// `perfbench/run.py` turns into the final JSON line, the benchmark's own
/// trace spans, and a staged replay of the compile pipeline that splits
/// `buildArtifact` into its layers. Nothing here reaches into `src/`
/// beyond the public entry points a user of the library calls.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "driver/CompilePipeline.h"
#include "support/Trace.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  /// Root of the source checkout (examples/ and tests/fixtures/ live
  /// there).
  std::string Root = ".";
  /// Directory of generated inputs (run.py writes it; see manifest.tsv).
  std::string Inputs;
  /// Scratch directory for the daemon's unix socket.
  std::string Scratch;
  /// Where a traced run writes its Chrome trace (empty = nowhere).
  std::string TraceOut;
};

/// splitmix64: the harness's only source of randomness, so a seed names
/// the same inputs on every platform and standard library.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1p-53; }
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }
  /// 0 .. N-1 in a random order.
  std::vector<size_t> permutation(size_t N) {
    std::vector<size_t> P(N);
    for (size_t I = 0; I < N; ++I)
      P[I] = I;
    shuffle(P);
    return P;
  }

private:
  uint64_t State;
};

double median(std::vector<double> V);
/// The nearest-rank \p Q quantile: sorted element ceil(Q * N) - 1.
double nearestRank(std::vector<double> V, double Q);

/// The highest percentile that still has at least ten samples beyond it:
/// the sorted value with exactly ten larger ranks. Fewer than eleven
/// samples have no such percentile; the maximum stands in and Percentile
/// reports 100.
struct Tail {
  double Value = 0;
  double Percentile = 100;
  size_t Samples = 0;
};
Tail tailOf(std::vector<double> V);

/// Named figures with their units, in the order measured.
using MetricList =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// One run's outcome: every figure the workload measured. run.py keeps
/// the ones BENCHMARK.json names for the final metrics object (EndToEnd
/// in untraced runs, Layers in traced runs) and prints the rest as
/// detail lines.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// The first few mismatches, for the log.
  std::vector<std::string> Errors;
  MetricList EndToEnd, Layers;
  /// Human-readable lines: per-class figures and finer metrics.
  std::vector<std::string> Details;
  /// Requests per second the daemon workload's closed loop achieved (0
  /// elsewhere), for the result stamp.
  double DaemonRatePerS = 0;

  void fail(const std::string &Why);
  void e2e(const std::string &Name, double Value, const std::string &Unit);
  void layer(const std::string &Name, double Value, const std::string &Unit);
  void detail(const std::string &Line) { Details.push_back(Line); }
  /// Prints "name value unit" to the detail log.
  void detailMetric(const std::string &Name, double Value,
                    const std::string &Unit);
};

/// The rb and dll drivers of bench/bench_runtime.cpp on their samples.
/// rb: drive(n) inserts the keys (i * 7919) % 100000 for i < n and
/// returns rb_size. dll: drive(n) builds a dll of n nodes, removes every
/// tail, and returns how many it removed.
std::string rbDriverSource();
std::string dllDriverSource();
/// The rb driver's closed form: how many distinct keys it inserts.
int64_t distinctRbKeys(int64_t N);

/// buildArtifact for a source the benchmark supplies and knows to be
/// well-typed; a rejection aborts the run (exit 2).
std::shared_ptr<const fearless::CompiledArtifact>
buildOrDie(const std::string &Source, const fearless::PipelineOptions &Opts);

//===----------------------------------------------------------------------===//
// Calibration
//===----------------------------------------------------------------------===//

/// Wall time of the benchmark's reference computation: a fixed mix of
/// ordered-map inserts, string formatting and hashing that shares no code
/// with the library. On a shared host it slows down together with the
/// workloads when neighbours load the machine.
double referenceMs();

/// The reference's time on an idle 4-CPU x86-64 host. A calibrated time
/// is a wall time scaled by NominalRefMs over the reference time measured
/// next to it: the milliseconds the operation would take on that host at
/// idle speed.
constexpr double NominalRefMs = 5.0;

/// Reference samples taken through a run, so each measurement can be
/// scaled by the machine speed around it. Not thread-safe: one thread
/// samples, and factors are read after the sampling ends.
class Calibration {
public:
  /// Runs the reference once and records its time.
  void sample();
  /// sample(), unless the last sample is younger than \p Ms.
  void sampleIfOlder(double Ms);
  /// NominalRefMs over the reference sample nearest to \p T.
  double factorAt(Clock::time_point T) const;
  double medianRefMs() const;
  size_t samples() const { return Samples.size(); }

private:
  std::vector<std::pair<Clock::time_point, double>> Samples;
};

/// Emits latency_ms: the sum, over the workload's classes, of each
/// class's median calibrated latency, i.e. the time of one pass over the
/// workload's set with every class weighed by its cost. With \p Weights,
/// each class's median is multiplied by its weight: daemon_mix weighs a
/// class by its share of the request mix, which makes the figure the
/// expected latency of one request.
void reportLatency(Result &R, const std::vector<std::vector<double>> &Classes,
                   const std::vector<double> &Weights = {});

/// Peak resident set of this process in MiB (getrusage).
double peakRssMb();

/// Reads a whole file; aborts the run (exit 2) when it cannot.
std::string readFileOrDie(const std::string &Path);

/// The set-up phase of a workload, run \p Reps times from scratch, each
/// after a reference sample; returns the median calibrated time in
/// seconds (setup_s). The last repetition's state is kept.
double timeSetup(int Reps, const std::function<void()> &SetUp,
                 Calibration &Cal);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// A span as read back from a TraceSession's Chrome export.
struct SpanEvent {
  std::string Name;
  uint32_t Tid = 0;
  double StartUs = 0;
  double DurUs = 0;
};

/// Writes \p S as Chrome trace JSON to A.TraceOut, when set, for
/// Perfetto / chrome://tracing.
void writeTrace(const fearless::TraceSession &S, const Args &A);

/// Every complete ('X') event retained by \p S. Aborts on an unparsable
/// export — that would be a bug in the trace layer.
std::vector<SpanEvent> collectSpans(const fearless::TraceSession &S);

/// Self time of each span: its duration minus the parts of it that its
/// direct children (spans nested inside it on the same thread) cover.
std::vector<double> selfTimesUs(const std::vector<SpanEvent> &Spans);

/// The benchmark's own span recorder: a TraceBuffer per benchmark thread
/// on the run's TraceSession, or nothing at all when the run is
/// untraced. Spans carry the request id as their argument.
class SpanScope {
public:
  SpanScope(fearless::TraceBuffer *TB, const char *Name, uint64_t ReqId)
      : TB(TB), Name(Name), ReqId(ReqId), Start(TB ? TB->now() : 0) {}
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
  ~SpanScope() {
    if (TB)
      TB->record(Name, "perfbench", 'X', Start, TB->now() - Start, "req",
                 ReqId);
  }

private:
  fearless::TraceBuffer *TB;
  const char *Name;
  uint64_t ReqId;
  uint64_t Start;
};

/// Event capacity of the benchmark's trace buffers (per thread).
constexpr size_t TraceCapacity = 1u << 17;

//===----------------------------------------------------------------------===//
// Staged compile
//===----------------------------------------------------------------------===//

/// The compile pipeline's layers, timed from outside by calling each
/// public stage function in the order buildArtifact runs them.
struct StageSplit {
  bool Ok = false;
  double LexMs = 0;
  /// parseProgram; it lexes internally, so parser self time is
  /// ParseMs - LexMs.
  double ParseMs = 0;
  /// StructTable::build + resolveProgram.
  double SemaMs = 0;
  /// checkProgram; it runs sema internally, so checker self time is
  /// CheckMs - SemaMs.
  double CheckMs = 0;
  double VerifyMs = 0;
  double AnalyzeMs = 0;
  double LowerMs = 0;
  /// buildArtifact's own glue between the stages: the verdict table and
  /// the site tally, replayed on the analysis report.
  double GlueMs = 0;
  uint64_t Tokens = 0;
  uint64_t Fns = 0;
  uint64_t VirtualSteps = 0;
  uint64_t UnifyCandidates = 0;
  uint64_t VerifySteps = 0;
  uint64_t SitesMust = 0;
  uint64_t SitesUnknown = 0;
  uint64_t CodeInstrs = 0;
};

/// Runs lex, parseProgram, sema, checkProgram, verifyProgram,
/// analyzeProgram and (for the vm engine) vm::compileProgram over
/// \p Source, each under a benchmark span on \p TB tagged \p ReqId.
StageSplit runStages(std::string_view Source,
                     const fearless::PipelineOptions &Opts,
                     fearless::TraceBuffer *TB, uint64_t ReqId);

/// buildArtifact under a private TraceSession: its wall time and the
/// duration of the `vm.compile` span the program emits (0 when the engine
/// skips lowering). \p Inspect, when set, sees the result; the artifact
/// is released before returning, so a staged replay that follows starts
/// from the same heap state the build did.
struct TracedBuild {
  double BuildMs = 0;
  double VmCompileMs = 0;
};
using ArtifactResult =
    fearless::Expected<std::shared_ptr<const fearless::CompiledArtifact>>;
TracedBuild
tracedBuild(std::string_view Source, const fearless::PipelineOptions &Opts,
            const std::function<void(const ArtifactResult &)> &Inspect = {});

/// Accumulates StageSplit results into the per-layer metrics every
/// traced workload reports for the compile layers (lexer … driver).
class CompileLayers {
public:
  /// One program: its staged split and a traced buildArtifact of the
  /// same source (for the program's own `vm.compile` span).
  void add(const StageSplit &S, const TracedBuild &B);
  /// Emits lexer.ms … driver.build_ms into \p R: totals over every
  /// program added.
  void report(Result &R) const;

private:
  StageSplit Sum;
  double VmCompileMs = 0;
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

Result runCheckCold(const Args &A);
Result runRunWarm(const Args &A);
Result runMcExplore(const Args &A);
Result runDaemon(const Args &A);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H

//===- perfbench/harness/Harness.cpp --------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// Shared plumbing of the end-to-end benchmark and its entry point:
//
//   perfbench_harness --workload W --seed N --seconds S --trace 0|1
//                     --root CHECKOUT --inputs DIR --scratch DIR
//                     [--trace-out FILE]
//
// Prints detail lines, then one line `PERFBENCH_RESULT {json}` that
// perfbench/run.py validates and reprints as the benchmark's result.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/StaticDisconnect.h"
#include "checker/Checker.h"
#include "lexer/Lexer.h"
#include "parser/Parser.h"
#include "sema/Resolver.h"
#include "server/Json.h"
#include "verifier/Verifier.h"
#include "vm/Compiler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <unordered_map>

#include <sys/resource.h>

using namespace fearless;

namespace perfbench {

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double nearestRank(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank =
      static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

void reportLatency(Result &R, const std::vector<std::vector<double>> &Classes,
                   const std::vector<double> &Weights) {
  double Sum = 0;
  for (size_t I = 0; I < Classes.size(); ++I)
    Sum += median(Classes[I]) * (Weights.empty() ? 1.0 : Weights[I]);
  R.e2e("latency_ms", Sum, "ms");
}

Tail tailOf(std::vector<double> V) {
  Tail T;
  T.Samples = V.size();
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  if (V.size() < 11) {
    T.Value = V.back();
    return T;
  }
  T.Value = V[V.size() - 11];
  T.Percentile = 100.0 * static_cast<double>(V.size() - 10) /
                 static_cast<double>(V.size());
  return T;
}

void Result::fail(const std::string &Why) {
  ++Failed;
  if (Errors.size() < 8)
    Errors.push_back(Why);
}

void Result::e2e(const std::string &Name, double Value,
                 const std::string &Unit) {
  EndToEnd.push_back({Name, {Value, Unit}});
}

void Result::layer(const std::string &Name, double Value,
                   const std::string &Unit) {
  Layers.push_back({Name, {Value, Unit}});
}

void Result::detailMetric(const std::string &Name, double Value,
                          const std::string &Unit) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "%-28s %14.6g %s", Name.c_str(), Value,
                Unit.c_str());
  Details.push_back(Buf);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::string readFileOrDie(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "perfbench: cannot read %s\n", Path.c_str());
    std::exit(2);
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::string rbDriverSource() {
  return std::string(programs::RedBlackTree) + R"prog(
def drive(n : int) : int {
  let t = rb_new();
  let i = 0;
  while (i < n) {
    let k = (i * 7919) % 100000;
    let p = new data(k) in { rb_insert(t, p) };
    i = i + 1
  };
  rb_size(t)
}
)prog";
}

std::string dllDriverSource() {
  return std::string(programs::DllSuite) + R"prog(
def drive(n : int) : int {
  let l = dll_new();
  let i = 0;
  while (i < n) {
    let p = new data(i) in { push_front(l, p) };
    i = i + 1
  };
  let removed = 0;
  let j = 0;
  while (j < n) {
    let d = let some(x) = remove_tail(l) in { 1 } else { 0 };
    removed = removed + d;
    j = j + 1
  };
  removed
}
)prog";
}

int64_t distinctRbKeys(int64_t N) {
  std::set<int64_t> Keys;
  for (int64_t I = 0; I < N; ++I)
    Keys.insert((I * 7919) % 100000);
  return static_cast<int64_t>(Keys.size());
}

std::shared_ptr<const CompiledArtifact>
buildOrDie(const std::string &Source, const PipelineOptions &Opts) {
  ArtifactResult A = buildArtifact(Source, Opts);
  if (!A) {
    std::fprintf(stderr, "perfbench: benchmark input rejected: %s\n",
                 A.error().render().c_str());
    std::exit(2);
  }
  return *A;
}

double timeSetup(int Reps, const std::function<void()> &SetUp,
                 Calibration &Cal) {
  std::vector<double> Secs;
  for (int I = 0; I < Reps; ++I) {
    Cal.sample();
    Clock::time_point T0 = Clock::now();
    SetUp();
    Secs.push_back(msSince(T0) * Cal.factorAt(T0) / 1000.0);
  }
  return median(Secs);
}

//===----------------------------------------------------------------------===//
// Calibration
//===----------------------------------------------------------------------===//

namespace {
volatile uint64_t ReferenceSink = 0;
} // namespace

double referenceMs() {
  Clock::time_point T0 = Clock::now();
  uint64_t X = 0x2545F4914F6CDD1Dull, Acc = 0;
  for (int Rep = 0; Rep < 4; ++Rep) {
    std::map<uint64_t, std::string> Ordered;
    std::unordered_map<uint64_t, uint64_t> Hashed;
    for (int I = 0; I < 4000; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      Ordered.emplace(X % 100000, std::to_string(X));
      Hashed[X % 5000] += static_cast<uint64_t>(I);
    }
    for (const auto &[K, V] : Ordered)
      Acc += K + V.size();
    for (const auto &[K, V] : Hashed)
      Acc ^= V + K;
  }
  ReferenceSink = Acc;
  return msSince(T0);
}

void Calibration::sample() {
  Clock::time_point T = Clock::now();
  Samples.push_back({T, referenceMs()});
}

void Calibration::sampleIfOlder(double Ms) {
  if (Samples.empty() || msSince(Samples.back().first) >= Ms)
    sample();
}

double Calibration::factorAt(Clock::time_point T) const {
  if (Samples.empty())
    return 1;
  auto It = std::lower_bound(
      Samples.begin(), Samples.end(), T,
      [](const auto &S, Clock::time_point V) { return S.first < V; });
  if (It == Samples.end())
    --It;
  else if (It != Samples.begin() &&
           T - std::prev(It)->first < It->first - T)
    --It;
  return NominalRefMs / It->second;
}

double Calibration::medianRefMs() const {
  std::vector<double> Ms;
  for (const auto &S : Samples)
    Ms.push_back(S.second);
  return median(Ms);
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

void writeTrace(const TraceSession &S, const Args &A) {
  std::string Error;
  if (!A.TraceOut.empty() && !S.writeChromeJson(A.TraceOut, Error))
    std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
}

std::vector<SpanEvent> collectSpans(const TraceSession &S) {
  Expected<server::Json> Doc = server::parseJson(S.toChromeJson());
  const server::Json *Events = Doc ? Doc->find("traceEvents") : nullptr;
  if (!Events || !Events->isArray()) {
    std::fprintf(stderr, "perfbench: unreadable trace export\n");
    std::exit(2);
  }
  std::vector<SpanEvent> Out;
  for (const server::Json &E : Events->items()) {
    const server::Json *Ph = E.find("ph");
    if (!Ph || Ph->stringValue() != "X")
      continue;
    SpanEvent S;
    S.Name = E.find("name")->stringValue();
    S.Tid = static_cast<uint32_t>(E.getInt("tid", 0));
    S.StartUs = E.find("ts")->doubleValue();
    S.DurUs = E.find("dur")->doubleValue();
    Out.push_back(std::move(S));
  }
  return Out;
}

std::vector<double> selfTimesUs(const std::vector<SpanEvent> &Spans) {
  // Per thread, walk spans by start (longer first on ties) with a stack
  // of open ancestors; each span's duration is charged to its parent's
  // child time.
  std::vector<double> Self(Spans.size());
  std::map<uint32_t, std::vector<size_t>> ByTid;
  for (size_t I = 0; I < Spans.size(); ++I) {
    Self[I] = Spans[I].DurUs;
    ByTid[Spans[I].Tid].push_back(I);
  }
  for (auto &[Tid, Ids] : ByTid) {
    (void)Tid;
    std::sort(Ids.begin(), Ids.end(), [&](size_t A, size_t B) {
      if (Spans[A].StartUs != Spans[B].StartUs)
        return Spans[A].StartUs < Spans[B].StartUs;
      return Spans[A].DurUs > Spans[B].DurUs;
    });
    std::vector<size_t> Open;
    for (size_t I : Ids) {
      const SpanEvent &S = Spans[I];
      while (!Open.empty() && Spans[Open.back()].StartUs +
                                      Spans[Open.back()].DurUs <
                                  S.StartUs + S.DurUs)
        Open.pop_back();
      if (!Open.empty())
        Self[Open.back()] -= S.DurUs;
      Open.push_back(I);
    }
  }
  return Self;
}

//===----------------------------------------------------------------------===//
// Staged compile
//===----------------------------------------------------------------------===//

StageSplit runStages(std::string_view Source, const PipelineOptions &Opts,
                     TraceBuffer *TB, uint64_t ReqId) {
  StageSplit S;
  Clock::time_point T0 = Clock::now();
  {
    SpanScope Span(TB, "lexer.lex", ReqId);
    DiagnosticEngine Diags;
    std::vector<Token> Tokens = lex(Source, Diags);
    S.Tokens = Tokens.size();
  }
  S.LexMs = msSince(T0);

  T0 = Clock::now();
  std::optional<Program> Parsed;
  {
    SpanScope Span(TB, "parser.parseProgram", ReqId);
    DiagnosticEngine Diags;
    Parsed = parseProgram(Source, Diags);
  }
  S.ParseMs = msSince(T0);
  if (!Parsed)
    return S;
  S.Fns = Parsed->Functions.size();

  T0 = Clock::now();
  {
    SpanScope Span(TB, "sema.resolve", ReqId);
    DiagnosticEngine Diags;
    StructTable Structs;
    if (!Structs.build(*Parsed, Diags) ||
        !resolveProgram(*Parsed, Structs, Diags))
      return S;
  }
  S.SemaMs = msSince(T0);

  CheckerOptions CO;
  CO.UseLivenessOracle = Opts.UseOracle;
  T0 = Clock::now();
  Expected<CheckedProgram> Checked = [&] {
    SpanScope Span(TB, "checker.checkProgram", ReqId);
    return checkProgram(*Parsed, CO);
  }();
  S.CheckMs = msSince(T0);
  if (!Checked)
    return S;
  for (const auto &[Name, Fn] : Checked->Functions) {
    (void)Name;
    S.VirtualSteps += Fn.Stats.VirtualSteps;
    S.UnifyCandidates += Fn.Stats.UnifyCandidates;
  }

  T0 = Clock::now();
  Expected<VerifyStats> Verified = [&] {
    SpanScope Span(TB, "verifier.verifyProgram", ReqId);
    return verifyProgram(*Checked);
  }();
  S.VerifyMs = msSince(T0);
  if (!Verified)
    return S;
  S.VerifySteps = Verified->StepsChecked;

  AnalysisOptions AO;
  AO.Interprocedural = Opts.Interprocedural;
  T0 = Clock::now();
  AnalysisReport Report = [&] {
    SpanScope Span(TB, "analysis.analyzeProgram", ReqId);
    return analyzeProgram(*Checked, AO);
  }();
  S.AnalyzeMs = msSince(T0);

  // What buildArtifact does between analysis and lowering.
  T0 = Clock::now();
  DisconnectVerdictTable Verdicts = [&] {
    SpanScope Span(TB, "driver.glue", ReqId);
    DisconnectVerdictTable V = Report.verdictTable();
    for (const SiteReport &Site : Report.Sites) {
      if (Site.Verdict == DisconnectVerdict::Unknown)
        ++S.SitesUnknown;
      else
        ++S.SitesMust;
    }
    return V;
  }();
  S.GlueMs = msSince(T0);

  if (Opts.Engine == "vm") {
    vm::CompileOptions VO;
    VO.EmitChecks = Opts.EmitChecks;
    VO.Verdicts = &Verdicts;
    VO.ElideDisconnect = Opts.Elide;
    T0 = Clock::now();
    Expected<vm::CompiledProgram> Code = [&] {
      SpanScope Span(TB, "vm.compileProgram", ReqId);
      return vm::compileProgram(*Checked, VO);
    }();
    S.LowerMs = msSince(T0);
    if (!Code)
      return S;
    for (const vm::Chunk &C : Code->Chunks)
      S.CodeInstrs += C.Code.size();
  }
  S.Ok = true;
  return S;
}

TracedBuild tracedBuild(std::string_view Source, const PipelineOptions &Opts,
                        const std::function<void(const ArtifactResult &)>
                            &Inspect) {
  // A private session per build: buildArtifact registers a fresh buffer
  // for its `vm.compile` span on every call.
  TraceConfig Config;
  Config.BufferCapacity = 16;
  TraceSession Session(Config);
  TracedBuild B;
  {
    Clock::time_point T0 = Clock::now();
    ArtifactResult Art = buildArtifact(Source, Opts, &Session);
    B.BuildMs = msSince(T0);
    if (Inspect)
      Inspect(Art);
  }
  for (const SpanEvent &S : collectSpans(Session))
    if (S.Name == "vm.compile")
      B.VmCompileMs += S.DurUs / 1000.0;
  return B;
}

void CompileLayers::add(const StageSplit &S, const TracedBuild &B) {
  Sum.LexMs += S.LexMs;
  Sum.ParseMs += S.ParseMs;
  Sum.SemaMs += S.SemaMs;
  Sum.CheckMs += S.CheckMs;
  Sum.VerifyMs += S.VerifyMs;
  Sum.AnalyzeMs += S.AnalyzeMs;
  Sum.LowerMs += S.LowerMs;
  Sum.GlueMs += S.GlueMs;
  Sum.Tokens += S.Tokens;
  Sum.Fns += S.Fns;
  Sum.VirtualSteps += S.VirtualSteps;
  Sum.UnifyCandidates += S.UnifyCandidates;
  Sum.VerifySteps += S.VerifySteps;
  Sum.SitesMust += S.SitesMust;
  Sum.SitesUnknown += S.SitesUnknown;
  Sum.CodeInstrs += S.CodeInstrs;
  VmCompileMs += B.VmCompileMs;
}

void CompileLayers::report(Result &R) const {
  R.layer("lexer.ms", Sum.LexMs, "ms");
  R.layer("lexer.tokens", static_cast<double>(Sum.Tokens), "count");
  R.layer("parser.ms", Sum.ParseMs - Sum.LexMs, "ms");
  R.layer("parser.fns", static_cast<double>(Sum.Fns), "count");
  R.layer("sema.ms", Sum.SemaMs, "ms");
  R.layer("checker.ms", Sum.CheckMs - Sum.SemaMs, "ms");
  R.layer("checker.virtual_steps", static_cast<double>(Sum.VirtualSteps),
          "count");
  R.layer("checker.unify_candidates",
          static_cast<double>(Sum.UnifyCandidates), "count");
  R.layer("verifier.ms", Sum.VerifyMs, "ms");
  R.layer("verifier.steps", static_cast<double>(Sum.VerifySteps),
          "count");
  R.layer("analysis.ms", Sum.AnalyzeMs, "ms");
  R.layer("analysis.sites_must", static_cast<double>(Sum.SitesMust),
          "count");
  R.layer("analysis.sites_unknown", static_cast<double>(Sum.SitesUnknown),
          "count");
  R.layer("vm.lower_ms", Sum.LowerMs, "ms");
  R.layer("vm.code_instrs", static_cast<double>(Sum.CodeInstrs), "count");
  R.layer("driver.build_ms", Sum.GlueMs, "ms");
  R.detailMetric("vm.compile span (program)", VmCompileMs, "ms");
}

} // namespace perfbench

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

namespace {

void appendJsonString(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  Out += '"';
}

void appendMetrics(std::string &Out, const perfbench::MetricList &Ms) {
  Out += '{';
  bool First = true;
  for (const auto &[Name, VU] : Ms) {
    if (!First)
      Out += ',';
    First = false;
    appendJsonString(Out, Name);
    char Buf[64];
    double V = std::isfinite(VU.first) ? VU.first : 0.0;
    std::snprintf(Buf, sizeof(Buf), ":{\"value\":%.17g,\"unit\":", V);
    Out += Buf;
    appendJsonString(Out, VU.second);
    Out += '}';
  }
  Out += '}';
}

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "W --seed N --seconds S --trace 0|1 --root DIR --inputs DIR "
               "--scratch DIR [--trace-out FILE]\n",
               Why);
  std::exit(2);
}

} // namespace

int main(int argc, char **argv) {
  perfbench::Args A;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (I + 1 >= argc)
      usage(("missing value for " + Flag).c_str());
    const char *V = argv[++I];
    if (Flag == "--workload")
      A.Workload = V;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(V, nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::strtod(V, nullptr);
    else if (Flag == "--trace")
      A.Trace = std::strcmp(V, "0") != 0;
    else if (Flag == "--root")
      A.Root = V;
    else if (Flag == "--inputs")
      A.Inputs = V;
    else if (Flag == "--scratch")
      A.Scratch = V;
    else if (Flag == "--trace-out")
      A.TraceOut = V;
    else
      usage(("unknown flag " + Flag).c_str());
  }
  if (!(A.Seconds > 0))
    usage("--seconds must be positive");

  perfbench::Result R;
  if (A.Workload == "check_cold")
    R = perfbench::runCheckCold(A);
  else if (A.Workload == "run_warm")
    R = perfbench::runRunWarm(A);
  else if (A.Workload == "mc_explore")
    R = perfbench::runMcExplore(A);
  else if (A.Workload == "daemon_mix")
    R = perfbench::runDaemon(A);
  else
    usage(("unknown workload '" + A.Workload + "'").c_str());

  R.detailMetric("error_ratio",
                 R.Attempted ? static_cast<double>(R.Failed) /
                                   static_cast<double>(R.Attempted)
                             : 0,
                 "ratio");
  for (const std::string &L : R.Details)
    std::printf("  %s\n", L.c_str());
  for (const std::string &E : R.Errors)
    std::printf("  MISMATCH: %s\n", E.c_str());

  std::string Out = "PERFBENCH_RESULT {\"attempted\":" +
                    std::to_string(R.Attempted) +
                    ",\"failed\":" + std::to_string(R.Failed) +
                    ",\"end_to_end\":";
  appendMetrics(Out, R.EndToEnd);
  Out += ",\"per_layer\":";
  appendMetrics(Out, R.Layers);
#ifdef NDEBUG
  const char *Asserts = "false";
#else
  const char *Asserts = "true";
#endif
  char Context[128];
  std::snprintf(Context, sizeof(Context),
                ",\"context\":{\"daemon_rate_per_s\":%g,\"asserts\":%s}}",
                R.DaemonRatePerS, Asserts);
  Out += Context;
  std::printf("%s\n", Out.c_str());
  return 0;
}

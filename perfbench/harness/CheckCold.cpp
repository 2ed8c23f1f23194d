//===- perfbench/harness/CheckCold.cpp - Workload check_cold --------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// The cold `fearlessc check` a user waits for: every program of a seeded
// tools/gen_corpus.py draw (all five shapes, 1k-4k functions, plus one
// 16k program) goes through buildArtifact once per pass with default
// PipelineOptions; nothing executes. Three known-rejected inputs ride
// along so the checker's failure path is timed too. The figure is the
// time of one pass over the draw, so each input weighs by its cost.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdio>
#include <sstream>

using namespace fearless;

namespace perfbench {
namespace {

struct Input {
  std::string Name;
  std::string Source;
  /// Accepted inputs: the function count, counted from the text (one
  /// `def` per function at the start of a line), not by the parser.
  size_t ExpectFns = 0;
  /// Rejected inputs: the function the check-stage diagnostic must name.
  std::string RejectFn;
  /// Wall and calibrated times of the untraced phase.
  std::vector<double> Ms, CalMs;
  /// Calibrated buildArtifact times of the traced phase.
  std::vector<double> TracedCalMs;
};

size_t countDefs(const std::string &Src) {
  size_t N = Src.compare(0, 4, "def ") == 0 ? 1 : 0;
  for (size_t P = Src.find("\ndef "); P != std::string::npos;
       P = Src.find("\ndef ", P + 1))
    ++N;
  return N;
}

/// manifest.tsv rows: `accept NAME PATH`, `reject NAME PATH FN`, or
/// `reject_fig4 NAME PATH FN` (the corpus gets Fig. 4's broken dll
/// remove_tail appended). Paths are relative to the checkout root unless
/// they start with "inputs/".
std::vector<Input> loadDraw(const Args &A) {
  std::vector<Input> Draw;
  std::istringstream Rows(readFileOrDie(A.Inputs + "/manifest.tsv"));
  std::string Row;
  while (std::getline(Rows, Row)) {
    std::istringstream Cols(Row);
    std::string Kind, Name, Path, Fn;
    std::getline(Cols, Kind, '\t');
    std::getline(Cols, Name, '\t');
    std::getline(Cols, Path, '\t');
    std::getline(Cols, Fn, '\t');
    if (Kind.empty())
      continue;
    std::string Full = Path.rfind("inputs/", 0) == 0
                           ? A.Inputs + "/" + Path.substr(7)
                           : A.Root + "/" + Path;
    Input In;
    In.Name = Name;
    In.Source = readFileOrDie(Full);
    if (Kind == "accept") {
      In.ExpectFns = countDefs(In.Source);
    } else if (Kind == "reject" || Kind == "reject_fig4") {
      if (Kind == "reject_fig4")
        In.Source += programs::DllBrokenRemoveTail;
      In.RejectFn = Fn;
    } else {
      std::fprintf(stderr, "perfbench: bad manifest row '%s'\n", Row.c_str());
      std::exit(2);
    }
    Draw.push_back(std::move(In));
  }
  if (Draw.empty()) {
    std::fprintf(stderr, "perfbench: empty check_cold draw\n");
    std::exit(2);
  }
  return Draw;
}

/// The known answer for one input: accepted with the counted function
/// total, or rejected at the check stage in the named function.
std::string verdictMismatch(
    const Input &In,
    const ArtifactResult &A) {
  if (In.RejectFn.empty()) {
    if (!A)
      return In.Name + ": rejected: " + A.error().render();
    size_t Fns = (*A)->P.Checked.Functions.size();
    if (Fns != In.ExpectFns)
      return In.Name + ": checked " + std::to_string(Fns) +
             " functions, source defines " + std::to_string(In.ExpectFns);
    return "";
  }
  if (A)
    return In.Name + ": accepted, expected a rejection";
  if (A.error().Stage != DiagnosticStage::Check)
    return In.Name + ": rejected outside the check stage: " +
           A.error().render();
  if (A.error().Message.find("in function '" + In.RejectFn + "'") ==
      std::string::npos)
    return In.Name + ": rejection does not name '" + In.RejectFn +
           "': " + A.error().render();
  return "";
}

} // namespace

Result runCheckCold(const Args &A) {
  Result R;
  std::vector<Input> Draw;
  Calibration Cal;
  // Set-up: read the draw, then a first buildArtifact of a small fixed
  // program (the rb driver), as a checker process does before it gets to
  // the user's input.
  const std::string Warm = rbDriverSource();
  double SetupS = timeSetup(
      25,
      [&] {
        Draw = loadDraw(A);
        buildOrDie(Warm, PipelineOptions{});
      },
      Cal);

  Rng Order(A.Seed ^ 0xC0DEC01Dull);
  uint64_t ReqId = 0;

  // Untraced passes for --seconds; half of it in a traced run, where they
  // are the baseline of the tracing overhead.
  double UntracedMs = A.Trace ? A.Seconds * 500 : A.Seconds * 1000;
  double AcceptedFns = 0, CheckMs = 0;
  Clock::time_point Start = Clock::now();
  for (bool Done = false; !Done;) {
    for (size_t I : Order.permutation(Draw.size())) {
      if (msSince(Start) >= UntracedMs) {
        Done = true;
        break;
      }
      Input &In = Draw[I];
      ++R.Attempted;
      Cal.sample();
      Clock::time_point T0 = Clock::now();
      ArtifactResult Art = buildArtifact(In.Source, PipelineOptions{});
      double Ms = msSince(T0);
      In.Ms.push_back(Ms);
      In.CalMs.push_back(Ms * Cal.factorAt(T0));
      CheckMs += Ms;
      if (In.RejectFn.empty())
        AcceptedFns += static_cast<double>(In.ExpectFns);
      if (std::string Why = verdictMismatch(In, Art); !Why.empty())
        R.fail(Why);
    }
  }

  // Traced: exactly one pass over the draw, so per-layer counts repeat.
  TraceSession Session(TraceConfig{TraceCapacity});
  CompileLayers Layers;
  if (A.Trace) {
    TraceBuffer *TB = &Session.registerThread(1, "perfbench-main");
    for (size_t I : Order.permutation(Draw.size())) {
      Input &In = Draw[I];
      ++R.Attempted;
      ++ReqId;
      std::string Why;
      Cal.sample();
      Clock::time_point T0 = Clock::now();
      TracedBuild B = [&] {
        SpanScope Span(TB, "driver.buildArtifact", ReqId);
        return tracedBuild(In.Source, PipelineOptions{},
                           [&](const ArtifactResult &Art) {
                             Why = verdictMismatch(In, Art);
                           });
      }();
      In.TracedCalMs.push_back(B.BuildMs * Cal.factorAt(T0));
      StageSplit S = runStages(In.Source, PipelineOptions{}, TB, ReqId);
      if (!Why.empty())
        R.fail(Why);
      else if (S.Ok != In.RejectFn.empty())
        R.fail(In.Name + ": staged pipeline disagrees with buildArtifact");
      Layers.add(S, B);
    }
  }

  std::vector<std::vector<double>> Classes;
  for (const Input &In : Draw)
    Classes.push_back(In.CalMs);
  double FnsPerS = CheckMs > 0 ? AcceptedFns / (CheckMs / 1000) : 0;

  R.detail("check_cold: " + std::to_string(Draw.size()) +
           " inputs; wall-clock medians per input below");
  R.detailMetric("check_fns_per_s", FnsPerS, "1/s");
  R.detailMetric("reference median", Cal.medianRefMs(), "ms");
  for (const Input &In : Draw)
    if (!In.Ms.empty())
      R.detailMetric("input " + In.Name, median(In.Ms), "ms");

  R.e2e("setup_s", SetupS, "s");
  R.e2e("peak_rss_mb", peakRssMb(), "MB");
  reportLatency(R, Classes);

  if (A.Trace) {
    Layers.report(R);
    R.detailMetric("spans recorded",
                   static_cast<double>(collectSpans(Session).size()), "count");
    writeTrace(Session, A);
    // Tracing overhead: the traced pass over an untraced one, both
    // calibrated, over the inputs seen in both phases.
    double TracedPassMs = 0, UntracedPassMs = 0;
    for (const Input &In : Draw)
      if (!In.CalMs.empty() && !In.TracedCalMs.empty()) {
        TracedPassMs += median(In.TracedCalMs);
        UntracedPassMs += median(In.CalMs);
      }
    R.layer("trace.overhead_ratio",
            UntracedPassMs > 0 ? TracedPassMs / UntracedPassMs - 1 : 0,
            "ratio");
  }
  return R;
}

} // namespace perfbench

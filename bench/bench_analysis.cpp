//===- bench/bench_analysis.cpp -------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// E12 — interprocedural analysis scaling: wall clock of the static
// region-graph analysis against function count, intra-procedural
// (signature havoc at every call) vs interprocedural (bottom-up
// summaries over the SCC condensation), plus the verdict split each
// mode achieves on the same program. The synthetic family mirrors
// tools/gen_corpus.py: reader/site pairs with cross-call disconnect
// proofs, writer pairs that must stay unknown, long reader chains, and
// mutually recursive reader pairs for the SCC fixpoint.
//
//===----------------------------------------------------------------------===//

#include "analysis/StaticDisconnect.h"
#include "driver/CompilePipeline.h"

#include <benchmark/benchmark.h>

#include <sstream>

using namespace fearless;

namespace {

/// ~Fns functions in the gen_corpus "mixed" spirit: one long reader
/// chain (a quarter of the budget), then reader/site and writer/site
/// pairs with a recursive reader pair every eighth pair.
std::string corpusProgram(int Fns) {
  std::ostringstream OS;
  OS << "struct cnode { next : cnode; value : int; }\n";

  auto Site = [&OS](const std::string &Name, const std::string &Callee,
                    bool IntArg) {
    OS << "def " << Name << "() : int {\n"
       << "  let a = new cnode();\n"
       << "  let b = new cnode();\n"
       << "  a.next = b;\n"
       << "  a.next = a;\n"
       << "  let v = " << Callee << (IntArg ? "(a, 4)" : "(a)") << ";\n"
       << "  if disconnected(a, b) { v + 1 } else { 0 }\n"
       << "}\n";
  };

  int Budget = Fns;
  int ChainLen = Fns / 4 > 2 ? Fns / 4 : 2;
  for (int I = 0; I < ChainLen; ++I) {
    OS << "def chain_f" << I << "(x : cnode) : int {\n";
    if (I + 1 < ChainLen)
      OS << "  let c = chain_f" << I + 1 << "(x);\n  x.value + c\n";
    else
      OS << "  x.value\n";
    OS << "}\n";
  }
  Site("chain_site", "chain_f0", /*IntArg=*/false);
  Budget -= ChainLen + 1;

  int Pair = 0;
  while (Budget > 1) {
    std::ostringstream Name;
    if (Pair % 8 == 7 && Budget > 2) {
      // Mutually recursive reader pair (SCC fixpoint).
      OS << "def rec_a" << Pair << "(x : cnode, n : int) : int {\n"
         << "  if (n < 1) { x.value } else { rec_b" << Pair
         << "(x, n - 1) }\n}\n"
         << "def rec_b" << Pair << "(x : cnode, n : int) : int {\n"
         << "  if (n < 1) { 0 } else { rec_a" << Pair
         << "(x, n - 1) }\n}\n";
      Name << "rec_site" << Pair;
      Site(Name.str(), "rec_a" + std::to_string(Pair), /*IntArg=*/true);
      Budget -= 3;
    } else if (Pair % 4 == 3) {
      // Writer pair: the site must stay unknown in both modes.
      OS << "def wr" << Pair << "(x : cnode) : int {\n"
         << "  x.next = new cnode();\n  x.value\n}\n";
      Name << "wr_site" << Pair;
      Site(Name.str(), "wr" + std::to_string(Pair), /*IntArg=*/false);
      Budget -= 2;
    } else {
      OS << "def rd" << Pair << "(x : cnode) : int {\n"
         << "  x.value + " << Pair << "\n}\n";
      Name << "rd_site" << Pair;
      Site(Name.str(), "rd" + std::to_string(Pair), /*IntArg=*/false);
      Budget -= 2;
    }
    ++Pair;
  }
  OS << "def main() : int {\n  chain_site()\n}\n";
  return OS.str();
}

void runAnalysisBench(benchmark::State &State, bool Interprocedural) {
  std::string Source = corpusProgram(static_cast<int>(State.range(0)));
  auto Built = buildArtifact(Source);
  if (!Built) {
    State.SkipWithError(Built.error().Message.c_str());
    return;
  }
  const Pipeline &P = (*Built)->P;
  AnalysisOptions Opts;
  Opts.Interprocedural = Interprocedural;
  size_t MustDisc = 0, MustConn = 0, Unknown = 0, Sites = 0;
  for (auto _ : State) {
    AnalysisReport R = analyzeProgram(P.Checked, Opts);
    MustDisc = MustConn = Unknown = 0;
    Sites = R.Sites.size();
    for (const SiteReport &S : R.Sites) {
      if (S.Verdict == DisconnectVerdict::MustDisconnected)
        ++MustDisc;
      else if (S.Verdict == DisconnectVerdict::MustConnected)
        ++MustConn;
      else
        ++Unknown;
    }
    benchmark::DoNotOptimize(R.Sites.data());
  }
  State.counters["functions"] =
      static_cast<double>(P.Checked.Functions.size());
  State.counters["sites"] = static_cast<double>(Sites);
  State.counters["must_disconnected"] = static_cast<double>(MustDisc);
  State.counters["must_connected"] = static_cast<double>(MustConn);
  State.counters["unknown"] = static_cast<double>(Unknown);
}

void BM_Analyze_Interprocedural(benchmark::State &State) {
  runAnalysisBench(State, /*Interprocedural=*/true);
}
BENCHMARK(BM_Analyze_Interprocedural)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Arg(2048);

void BM_Analyze_Intra(benchmark::State &State) {
  runAnalysisBench(State, /*Interprocedural=*/false);
}
BENCHMARK(BM_Analyze_Intra)->Arg(32)->Arg(128)->Arg(512)->Arg(2048);

/// The summary engine alone (call-graph + SCC fixpoint + effect runs),
/// without the per-function verdict pass on top.
void BM_Summaries_Only(benchmark::State &State) {
  std::string Source = corpusProgram(static_cast<int>(State.range(0)));
  auto Built = buildArtifact(Source);
  if (!Built) {
    State.SkipWithError(Built.error().Message.c_str());
    return;
  }
  const Pipeline &P = (*Built)->P;
  SummaryStats Stats;
  for (auto _ : State) {
    SummaryTable T = computeSummaries(P.Checked, &Stats);
    benchmark::DoNotOptimize(T.size());
  }
  State.counters["functions"] = static_cast<double>(Stats.Functions);
  State.counters["sccs"] = static_cast<double>(Stats.Sccs);
  State.counters["effect_runs"] = static_cast<double>(Stats.EffectRuns);
  State.counters["preserved_params"] =
      static_cast<double>(Stats.PreservedParams);
}
BENCHMARK(BM_Summaries_Only)->Arg(32)->Arg(128)->Arg(512)->Arg(2048);

} // namespace

BENCHMARK_MAIN();

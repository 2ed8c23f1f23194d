//===- bench/bench_checker.cpp --------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// E3 — "checks our most complex examples in seconds" (§1, §5.1): wall
// clock for the full pipeline on every suite, plus scaling on synthetic
// programs.
//
// E4 — §4.6 complexity: branch unification is common-case polynomial with
// the liveness oracle and worst-case exponential without it. The
// pathological family forces a specific k-slot keep-set at a merge: the
// oracle finds it in one candidate; the naive search enumerates subsets
// in ascending size, trying ~2^k candidates.
//
//===----------------------------------------------------------------------===//

#include "driver/CompilePipeline.h"
#include "parser/Parser.h"

#include <benchmark/benchmark.h>

#include <sstream>

using namespace fearless;

namespace {

/// Parse + check only, without verification, analysis or lowering: the
/// checker's own cost, for the entries that switch its options or time
/// the verifier alone. \p Prog owns the parsed program.
Expected<CheckedProgram> checkOnly(std::string_view Source,
                                   const CheckerOptions &Opts,
                                   std::optional<Program> &Prog) {
  DiagnosticEngine Diags;
  Prog = parseProgram(Source, Diags);
  if (!Prog)
    return fail(Diags.renderAll());
  return checkProgram(*Prog, Opts);
}

//===----------------------------------------------------------------------===//
// E3: suites
//===----------------------------------------------------------------------===//

void BM_Check_SllSuite(benchmark::State &State) {
  for (auto _ : State)
    benchmark::DoNotOptimize(buildArtifact(programs::SllSuite).hasValue());
}
BENCHMARK(BM_Check_SllSuite);

void BM_Check_DllSuite(benchmark::State &State) {
  for (auto _ : State)
    benchmark::DoNotOptimize(buildArtifact(programs::DllSuite).hasValue());
}
BENCHMARK(BM_Check_DllSuite);

void BM_Check_RedBlackTree(benchmark::State &State) {
  for (auto _ : State)
    benchmark::DoNotOptimize(buildArtifact(programs::RedBlackTree).hasValue());
}
BENCHMARK(BM_Check_RedBlackTree);

void BM_Check_MessagePassing(benchmark::State &State) {
  for (auto _ : State)
    benchmark::DoNotOptimize(
        buildArtifact(programs::MessagePassing).hasValue());
}
BENCHMARK(BM_Check_MessagePassing);

void BM_Check_RedBlackTree_NoDerivations(benchmark::State &State) {
  CheckerOptions Opts;
  Opts.EmitDerivations = false;
  for (auto _ : State) {
    std::optional<Program> Prog;
    benchmark::DoNotOptimize(
        checkOnly(programs::RedBlackTree, Opts, Prog).hasValue());
  }
}
BENCHMARK(BM_Check_RedBlackTree_NoDerivations);

//===----------------------------------------------------------------------===//
// E3: synthetic scaling — N copies of the sll function suite
//===----------------------------------------------------------------------===//

std::string scaledProgram(int Copies) {
  std::ostringstream OS;
  OS << R"(
struct data { value : int; }
struct node { iso payload : data; iso next : node?; }
)";
  for (int I = 0; I < Copies; ++I) {
    OS << "def walk" << I << "(n : node) : int {\n"
       << "  let some(next) = n.next in { n.payload.value + walk" << I
       << "(next) } else { n.payload.value }\n}\n"
       << "def pop" << I << "(n : node) : data? {\n"
       << "  let some(next) = n.next in {\n"
       << "    n.next = next.next;\n"
       << "    some next.payload\n"
       << "  } else { none }\n}\n";
  }
  return OS.str();
}

void BM_Check_Scaling(benchmark::State &State) {
  std::string Source = scaledProgram(static_cast<int>(State.range(0)));
  for (auto _ : State)
    benchmark::DoNotOptimize(buildArtifact(Source).hasValue());
  State.counters["functions"] =
      static_cast<double>(2 * State.range(0));
}
BENCHMARK(BM_Check_Scaling)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

//===----------------------------------------------------------------------===//
// E4: oracle vs naive unification on the pathological family
//===----------------------------------------------------------------------===//

/// A merge that *requires* keeping exactly the k tracked slots: k live
/// aliases into the k iso-field targets survive the conditional.
std::string pathological(int K) {
  std::ostringstream OS;
  OS << "struct data { value : int; }\n";
  OS << "struct many {\n";
  for (int I = 0; I < K; ++I)
    OS << "  iso f" << I << " : data;\n";
  OS << "}\n";
  OS << "def f(x : many, c : bool) : int {\n";
  for (int I = 0; I < K; ++I)
    OS << "  let v" << I << " = x.f" << I << ";\n";
  OS << "  if (c) { 1 } else { 2 };\n";
  OS << "  0";
  for (int I = 0; I < K; ++I)
    OS << " + v" << I << ".value";
  OS << "\n}\n";
  return OS.str();
}

void BM_Unify_Oracle(benchmark::State &State) {
  std::string Source = pathological(static_cast<int>(State.range(0)));
  CheckerOptions Opts;
  Opts.UseLivenessOracle = true;
  Opts.EmitDerivations = false;
  size_t Candidates = 0;
  for (auto _ : State) {
    std::optional<Program> Prog;
    Expected<CheckedProgram> P = checkOnly(Source, Opts, Prog);
    if (!P)
      State.SkipWithError(P.error().Message.c_str());
    else
      Candidates = P->Functions.begin()->second.Stats.UnifyCandidates;
  }
  State.counters["candidates"] = static_cast<double>(Candidates);
}
BENCHMARK(BM_Unify_Oracle)->DenseRange(2, 12, 2);

void BM_Unify_NaiveSearch(benchmark::State &State) {
  std::string Source = pathological(static_cast<int>(State.range(0)));
  CheckerOptions Opts;
  Opts.UseLivenessOracle = false;
  Opts.EmitDerivations = false;
  Opts.UnifySearchLimit = 1 << 20;
  size_t Candidates = 0;
  for (auto _ : State) {
    std::optional<Program> Prog;
    Expected<CheckedProgram> P = checkOnly(Source, Opts, Prog);
    if (!P)
      State.SkipWithError(P.error().Message.c_str());
    else
      Candidates = P->Functions.begin()->second.Stats.UnifyCandidates;
  }
  State.counters["candidates"] = static_cast<double>(Candidates);
}
BENCHMARK(BM_Unify_NaiveSearch)->DenseRange(2, 12, 2);

//===----------------------------------------------------------------------===//
// Prover–verifier: re-checking emitted derivations (§5)
//===----------------------------------------------------------------------===//

void BM_Verify_RedBlackTree(benchmark::State &State) {
  std::optional<Program> Prog;
  Expected<CheckedProgram> P = checkOnly(programs::RedBlackTree, {}, Prog);
  if (!P) {
    State.SkipWithError(P.error().Message.c_str());
    return;
  }
  size_t Steps = 0;
  for (auto _ : State) {
    Expected<VerifyStats> Stats = verifyProgram(*P);
    if (!Stats) {
      State.SkipWithError(Stats.error().Message.c_str());
      return;
    }
    Steps = Stats->StepsChecked;
  }
  State.counters["derivation_steps"] = static_cast<double>(Steps);
}
BENCHMARK(BM_Verify_RedBlackTree);

void BM_Verify_DllSuite(benchmark::State &State) {
  std::optional<Program> Prog;
  Expected<CheckedProgram> P = checkOnly(programs::DllSuite, {}, Prog);
  if (!P) {
    State.SkipWithError(P.error().Message.c_str());
    return;
  }
  size_t Steps = 0;
  for (auto _ : State) {
    Expected<VerifyStats> Stats = verifyProgram(*P);
    if (!Stats) {
      State.SkipWithError(Stats.error().Message.c_str());
      return;
    }
    Steps = Stats->StepsChecked;
  }
  State.counters["derivation_steps"] = static_cast<double>(Steps);
}
BENCHMARK(BM_Verify_DllSuite);

} // namespace

BENCHMARK_MAIN();

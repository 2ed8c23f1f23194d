//===- bench/bench_vm.cpp -------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// E11 — the register bytecode VM vs the tree-walking interpreter. Three
// engine configurations per workload: the interpreter (checks on, the
// differential baseline), the VM with reservation-check ops compiled in
// (checked), and the VM with every check compiled out on the strength of
// Theorems 6.1/6.2 (erased). The erased VM is the shipping
// configuration; the acceptance bar is >=2x over the interpreter on the
// bench_runtime hot loops and an allocation-free steady-state dispatch
// loop (allocs_per_iter, measured differentially).
//
// Counters exported per benchmark (into BENCH_pr7.json via
// tools/bench.sh): vm_instructions, ic_hits, ic_misses, checks_erased,
// and the spin workload adds allocs_per_iter.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <cstdlib>
#include <new>

// Allocation counting for the dispatch-loop claim: the binary replaces
// global operator new so the differential spin measurement sees every
// heap allocation.
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

#include "driver/CompilePipeline.h"
#include "runtime/Machine.h"
#include "vm/Compiler.h"

#include <benchmark/benchmark.h>

using namespace fearless;

namespace {

enum class Engine { Interp, VmChecked, VmErased };

/// Pure dispatch cost: a counted loop with no heap traffic. The VM
/// retires it as five bytecode ops per iteration; the interpreter
/// re-walks the while/assign/binop trees.
const char *SpinProgram = R"prog(
def drive(n : int) : int {
  let i = 0;
  while (i < n) { i = i + 1 };
  i
}
)prog";

/// The bench_runtime sll hot loop: build a list, then sum it repeatedly
/// (field reads through the inline caches dominate).
const char *SllDriver = R"prog(
def drive(n, rounds : int) : int {
  let l = sll_new();
  let i = 0;
  while (i < n) {
    let p = new data(i) in { push_front(l, p) };
    i = i + 1
  };
  let total = 0;
  let r = 0;
  while (r < rounds) {
    total = total + sum(l);
    r = r + 1
  };
  total
}
)prog";

void runWorkload(benchmark::State &State, const std::string &Source,
                 std::vector<Value> Args, Engine E) {
  PipelineOptions PO;
  PO.Engine = E == Engine::Interp ? "interp" : "vm";
  PO.EmitChecks = E == Engine::VmChecked;
  PO.Elide = false; // every `if disconnected` traverses
  auto Built = buildArtifact(Source, PO);
  if (!Built) {
    State.SkipWithError(Built.error().Message.c_str());
    return;
  }
  const Pipeline &P = (*Built)->P;
  Symbol Drive = P.Prog->Names.intern("drive");
  RuntimeMetrics Last;
  for (auto _ : State) {
    MachineOptions Opts;
    if ((*Built)->VmCode)
      Opts.VmCode = &*(*Built)->VmCode;
    Machine M(P.Checked, Opts);
    M.spawn(Drive, Args);
    Expected<MachineSummary> R = M.run();
    if (!R) {
      State.SkipWithError(R.error().Message.c_str());
      return;
    }
    benchmark::DoNotOptimize(R->ThreadResults[0]);
    Last = M.metrics();
  }
  State.counters["vm_instructions"] =
      static_cast<double>(Last.VmInstructions);
  State.counters["ic_hits"] = static_cast<double>(Last.IcHits);
  State.counters["ic_misses"] = static_cast<double>(Last.IcMisses);
  State.counters["checks_erased"] = static_cast<double>(Last.ChecksErased);
  State.counters["reservation_checks"] =
      static_cast<double>(Last.ReservationChecks);
  if (Last.VmInstructions)
    State.SetItemsProcessed(State.iterations() *
                            static_cast<int64_t>(Last.VmInstructions));
}

void BM_Spin_Interp(benchmark::State &State) {
  runWorkload(State, SpinProgram, {Value::intVal(State.range(0))},
              Engine::Interp);
}
BENCHMARK(BM_Spin_Interp)->Arg(4096)->Arg(65536);

void BM_Spin_VmChecked(benchmark::State &State) {
  runWorkload(State, SpinProgram, {Value::intVal(State.range(0))},
              Engine::VmChecked);
}
BENCHMARK(BM_Spin_VmChecked)->Arg(4096)->Arg(65536);

void BM_Spin_VmErased(benchmark::State &State) {
  runWorkload(State, SpinProgram, {Value::intVal(State.range(0))},
              Engine::VmErased);
}
BENCHMARK(BM_Spin_VmErased)->Arg(4096)->Arg(65536);

void BM_SllWalk_Interp(benchmark::State &State) {
  runWorkload(State, std::string(programs::SllSuite) + SllDriver,
              {Value::intVal(State.range(0)), Value::intVal(50)},
              Engine::Interp);
}
BENCHMARK(BM_SllWalk_Interp)->Arg(64)->Arg(256)->Arg(1024);

void BM_SllWalk_VmChecked(benchmark::State &State) {
  runWorkload(State, std::string(programs::SllSuite) + SllDriver,
              {Value::intVal(State.range(0)), Value::intVal(50)},
              Engine::VmChecked);
}
BENCHMARK(BM_SllWalk_VmChecked)->Arg(64)->Arg(256)->Arg(1024);

void BM_SllWalk_VmErased(benchmark::State &State) {
  runWorkload(State, std::string(programs::SllSuite) + SllDriver,
              {Value::intVal(State.range(0)), Value::intVal(50)},
              Engine::VmErased);
}
BENCHMARK(BM_SllWalk_VmErased)->Arg(64)->Arg(256)->Arg(1024);

/// Allocation count of one erased-VM spin run (UINT64_MAX on failure).
uint64_t spinAllocs(const Pipeline &P, const vm::CompiledProgram &Code,
                    int64_t N) {
  MachineOptions Opts;
  Opts.VmCode = &Code;
  Machine M(P.Checked, Opts);
  M.spawn(P.Prog->Names.intern("drive"), {Value::intVal(N)});
  uint64_t Before = GHeapAllocs.load(std::memory_order_relaxed);
  Expected<MachineSummary> R = M.run();
  uint64_t After = GHeapAllocs.load(std::memory_order_relaxed);
  if (!R || !(R->ThreadResults[0] == Value::intVal(N)))
    return UINT64_MAX;
  return After - Before;
}

/// `allocs_per_iter` for the steady-state dispatch loop, measured
/// differentially: two runs that differ only in loop count; the delta
/// divided by the extra iterations is the per-iteration allocation cost.
/// The acceptance bar is 0 — registers live in a preallocated file and
/// the hot loop never touches the allocator.
void BM_VmDispatchAllocs(benchmark::State &State) {
  PipelineOptions PO;
  PO.EmitChecks = false;
  PO.Elide = false;
  auto Built = buildArtifact(SpinProgram, PO);
  if (!Built) {
    State.SkipWithError(Built.error().Message.c_str());
    return;
  }
  const Pipeline &P = (*Built)->P;
  const vm::CompiledProgram *Code = &*(*Built)->VmCode;
  double AllocsPerIter = 0;
  for (auto _ : State) {
    uint64_t Small = spinAllocs(P, *Code, 4000);
    uint64_t Large = spinAllocs(P, *Code, 16000);
    if (Small == UINT64_MAX || Large == UINT64_MAX) {
      State.SkipWithError("spin workload failed");
      return;
    }
    AllocsPerIter =
        static_cast<double>(Large - Small) / (16000 - 4000);
    benchmark::DoNotOptimize(AllocsPerIter);
  }
  State.counters["allocs_per_iter"] = AllocsPerIter;
}
BENCHMARK(BM_VmDispatchAllocs)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();

//===- bench/bench_runtime.cpp --------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// E6 — §3.2: the dynamic reservation checks are *erasable* for well-typed
// programs (Theorems 6.1/6.2 guarantee they never fire). This bench
// measures the interpreter with the checks on vs erased over the list and
// tree workloads: the delta is exactly the cost a naive implementation
// would pay, and what the type system saves.
//
//===----------------------------------------------------------------------===//

#include "driver/CompilePipeline.h"
#include "runtime/Machine.h"

#include <benchmark/benchmark.h>

using namespace fearless;

namespace {

/// Workload drivers written in the surface language.
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

const char *RbDriver = R"prog(
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

void runWorkload(benchmark::State &State, const std::string &Source,
                 std::vector<Value> Args, bool Checks) {
  auto Built = buildArtifact(Source);
  if (!Built) {
    State.SkipWithError(Built.error().Message.c_str());
    return;
  }
  const Pipeline &P = (*Built)->P;
  Symbol Drive = P.Prog->Names.intern("drive");
  uint64_t Steps = 0;
  for (auto _ : State) {
    MachineOptions Opts;
    Opts.CheckReservations = Checks;
    Machine M(P.Checked, Opts);
    M.spawn(Drive, Args);
    Expected<MachineSummary> R = M.run();
    if (!R) {
      State.SkipWithError(R.error().Message.c_str());
      return;
    }
    benchmark::DoNotOptimize(R->ThreadResults[0]);
    Steps = R->Steps;
  }
  State.counters["steps"] = static_cast<double>(Steps);
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Steps));
}

void BM_SllWalk_ChecksOn(benchmark::State &State) {
  runWorkload(State, std::string(programs::SllSuite) + SllDriver,
              {Value::intVal(State.range(0)), Value::intVal(50)}, true);
}
BENCHMARK(BM_SllWalk_ChecksOn)->Arg(64)->Arg(256)->Arg(1024);

void BM_SllWalk_ChecksErased(benchmark::State &State) {
  runWorkload(State, std::string(programs::SllSuite) + SllDriver,
              {Value::intVal(State.range(0)), Value::intVal(50)}, false);
}
BENCHMARK(BM_SllWalk_ChecksErased)->Arg(64)->Arg(256)->Arg(1024);

void BM_RbInsert_ChecksOn(benchmark::State &State) {
  runWorkload(State, std::string(programs::RedBlackTree) + RbDriver,
              {Value::intVal(State.range(0))}, true);
}
BENCHMARK(BM_RbInsert_ChecksOn)->Arg(256)->Arg(1024)->Arg(4096);

void BM_RbInsert_ChecksErased(benchmark::State &State) {
  runWorkload(State, std::string(programs::RedBlackTree) + RbDriver,
              {Value::intVal(State.range(0))}, false);
}
BENCHMARK(BM_RbInsert_ChecksErased)->Arg(256)->Arg(1024)->Arg(4096);

//===----------------------------------------------------------------------===//
// dll remove_tail microbench: the Fig. 5 operation end to end, including
// its run-time `if disconnected`.
//===----------------------------------------------------------------------===//

const char *DllDriver = R"prog(
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

void BM_DllRemoveTail(benchmark::State &State) {
  runWorkload(State, std::string(programs::DllSuite) + DllDriver,
              {Value::intVal(State.range(0))}, true);
}
BENCHMARK(BM_DllRemoveTail)->Arg(64)->Arg(512);

} // namespace

BENCHMARK_MAIN();

//===- examples/linked_lists.cpp ------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// The paper's guiding examples (§2): the singly linked list with
// recursively linear ownership and the circular doubly linked list with
// shared ownership. Shows:
//  - both suites checking with almost no annotations (§8),
//  - Fig. 4's broken remove_tail being *rejected* statically,
//  - Fig. 5's `if disconnected` remove_tail running correctly on size-1
//    and size-2 lists — the exact scenario that breaks Fig. 4.
//
//===----------------------------------------------------------------------===//

#include "driver/CompilePipeline.h"
#include "runtime/Machine.h"

#include <cstdio>

using namespace fearless;

namespace {

/// Builds an sll via checked code only: a driver in the surface language.
const char *SllDriver = R"prog(
def demo(n : int) : int {
  let l = sll_new();
  let i = 0;
  while (i < n) {
    let p = new data(i) in { push_front(l, p) };
    i = i + 1
  };
  // Remove the tail (the element 0 pushed first) and return
  // length * 1000 + removed + sum.
  let removed = let some(d) = list_remove_tail(l) in { d.value }
                else { -1 };
  length(l) * 1000 + removed + sum(l)
}
)prog";

const char *DllDriver = R"prog(
def demo(n : int) : int {
  let l = dll_new();
  let i = 0;
  while (i < n) {
    let p = new data(i) in { push_front(l, p) };
    i = i + 1
  };
  // remove_tail uses `if disconnected` (Fig. 5): on a size-1 list the
  // subgraphs intersect and the else branch runs.
  let removed = let some(d) = remove_tail(l) in { d.value } else { -1 };
  removed * 100 + length(l)
}
)prog";

int runDemo(const char *Suite, const char *Driver, const char *Name,
            int64_t Arg) {
  auto Built = buildArtifact(std::string(Suite) + Driver);
  if (!Built) {
    std::printf("%s failed to check: %s\n", Name,
                Built.error().render().c_str());
    return -1;
  }
  const Pipeline &P = (*Built)->P;
  Machine M(P.Checked);
  M.spawn(P.Prog->Names.intern("demo"), {Value::intVal(Arg)});
  Expected<MachineSummary> R = M.run();
  if (!R) {
    std::printf("%s failed at runtime: %s\n", Name,
                R.error().render().c_str());
    return -1;
  }
  std::printf("%s(%lld) = %lld   [disconnect checks: %llu]\n", Name,
              static_cast<long long>(Arg),
              static_cast<long long>(R->ThreadResults[0].asInt()),
              static_cast<unsigned long long>(
                  M.stats().DisconnectChecks));
  return 0;
}

} // namespace

int main() {
  std::printf("== singly linked list (Figs. 1, 2, 14) ==\n");
  runDemo(programs::SllSuite, SllDriver, "sll demo", 5);

  std::printf("\n== circular doubly linked list (Figs. 1, 3, 5, 14) ==\n");
  runDemo(programs::DllSuite, DllDriver, "dll demo", 4);
  runDemo(programs::DllSuite, DllDriver, "dll demo", 1);

  std::printf("\n== Fig. 4: the broken remove_tail is rejected ==\n");
  auto Broken = buildArtifact(programs::DllBrokenRemoveTail);
  if (Broken) {
    std::printf("ERROR: the broken program was accepted!\n");
    return 1;
  }
  std::printf("rejected as expected:\n  %s\n",
              Broken.error().render().c_str());
  return 0;
}

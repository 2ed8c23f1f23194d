//===- examples/red_black_tree.cpp ----------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// The appendix's flagship data structure (§8): a red-black tree with iso
// payloads, intra-region parent pointers, and rotations written as
// aliased-parameter helper functions (`before:` region relations). The
// whole driver below is checked surface code; the host only prints.
//
//===----------------------------------------------------------------------===//

#include "driver/CompilePipeline.h"
#include "runtime/Machine.h"

#include <cstdio>

using namespace fearless;

namespace {

const char *Driver = R"prog(
def demo(count : int) : int {
  let t = rb_new();
  let i = 0;
  while (i < count) {
    let k = (i * 2654435761) % 1000000;
    let p = new data(k) in { rb_insert(t, p) };
    i = i + 1
  };
  if (rb_check(t)) {
    // Encode: size * 1000 + height (both small enough to read off).
    rb_size(t) * 1000 + rb_height(t)
  } else {
    -1
  }
}

def lookup_demo(count : int, probe : int) : bool {
  let t = rb_new();
  let i = 0;
  while (i < count) {
    let p = new data(i * 3) in { rb_insert(t, p) };
    i = i + 1
  };
  rb_contains(t, probe)
}
)prog";

} // namespace

int main() {
  auto Built = buildArtifact(std::string(programs::RedBlackTree) + Driver);
  if (!Built) {
    std::printf("compilation failed: %s\n", Built.error().render().c_str());
    return 1;
  }
  const Pipeline &P = (*Built)->P;
  Symbol Fixup = P.Prog->Names.intern("rb_fixup");
  std::printf("rb_fixup : %s\n",
              toString(P.Checked.Signatures.at(Fixup), P.Prog->Names)
                  .c_str());

  for (int64_t Count : {10, 100, 1000}) {
    Machine M(P.Checked);
    M.spawn(P.Prog->Names.intern("demo"), {Value::intVal(Count)});
    Expected<MachineSummary> R = M.run();
    if (!R) {
      std::printf("runtime error: %s\n", R.error().render().c_str());
      return 1;
    }
    int64_t Encoded = R->ThreadResults[0].asInt();
    if (Encoded < 0) {
      std::printf("red-black invariants VIOLATED at count=%lld\n",
                  static_cast<long long>(Count));
      return 1;
    }
    std::printf("inserted %5lld keys: size=%lld height=%lld "
                "(balanced, invariants hold)\n",
                static_cast<long long>(Count),
                static_cast<long long>(Encoded / 1000),
                static_cast<long long>(Encoded % 1000));
  }

  // Membership probes.
  for (int64_t Probe : {9, 10}) {
    Machine M(P.Checked);
    M.spawn(P.Prog->Names.intern("lookup_demo"),
            {Value::intVal(50), Value::intVal(Probe)});
    Expected<MachineSummary> R = M.run();
    if (!R) {
      std::printf("runtime error: %s\n", R.error().render().c_str());
      return 1;
    }
    std::printf("contains(%lld) = %s\n", static_cast<long long>(Probe),
                toString(R->ThreadResults[0]).c_str());
  }
  return 0;
}

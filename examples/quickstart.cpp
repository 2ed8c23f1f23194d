//===- examples/quickstart.cpp --------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// Quickstart: write a program in the surface language, check it (the
// paper's type system), verify the emitted derivation (the paper's
// prover–verifier split), and run it on the abstract machine.
//
//===----------------------------------------------------------------------===//

#include "driver/CompilePipeline.h"
#include "runtime/Machine.h"

#include <cstdio>

using namespace fearless;

int main() {
  // A message box holding isolated payloads. Reading `box.item` focuses
  // the box and tracks the field (tempered domination, §2.1); the checker
  // inserts every focus/explore/retract step automatically.
  const char *Source = R"prog(
struct data { value : int; }

struct box {
  iso item : data?;
}

def put(b : box, d : data) : unit consumes d {
  b.item = some d;
}

def take_value(b : box) : int {
  let some(d) = b.item in {
    b.item = none;
    d.value
  } else { -1 }
}

def main() : int {
  let b = new box();
  let d = new data(42) in { put(b, d) };
  take_value(b)
}
)prog";

  // 1. Parse + resolve + region-check + verify the derivations (the
  //    artifact also carries the static analysis and the bytecode).
  auto Artifact = buildArtifact(Source);
  if (!Artifact) {
    std::printf("compilation failed: %s\n",
                Artifact.error().render().c_str());
    return 1;
  }
  const Pipeline &Compiled = (*Artifact)->P;
  std::printf("checked %zu functions; verifier re-checked %zu derivation "
              "steps (%zu virtual transformations)\n",
              Compiled.Checked.Functions.size(),
              Compiled.Verified.StepsChecked,
              Compiled.Verified.VirtualStepsChecked);

  // 2. Inspect an elaborated function type (§4.8).
  Symbol Put = Compiled.Prog->Names.intern("put");
  std::printf("put : %s\n",
              toString(Compiled.Checked.Signatures.at(Put),
                       Compiled.Prog->Names)
                  .c_str());

  // 3. Run it. The dynamic reservation checks are on, and — per Theorems
  // 6.1/6.2 — will never fire.
  Machine M(Compiled.Checked);
  M.spawn(Compiled.Prog->Names.intern("main"));
  Expected<MachineSummary> Result = M.run();
  if (!Result) {
    std::printf("runtime error: %s\n", Result.error().render().c_str());
    return 1;
  }
  std::printf("main() = %s  (steps: %llu, reservation checks: %llu, all "
              "passed)\n",
              toString(Result->ThreadResults[0]).c_str(),
              static_cast<unsigned long long>(Result->Steps),
              static_cast<unsigned long long>(
                  M.stats().ReservationChecks));
  return 0;
}

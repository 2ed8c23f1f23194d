//===- tests/golden_test.cpp ----------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// Byte-for-byte golden outputs of `fearlessc derive`, `fearlessc dot` and
// `fearlessc check --stats`, recorded under tests/fixtures/golden/. The
// derivation's in-memory shape may change; what it prints and what the
// verifier counts may not. Each case goes through the same library calls
// as the CLI command it mirrors.
//
//===----------------------------------------------------------------------===//

#include "driver/CompilePipeline.h"
#include "driver/Driver.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace fearless;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

std::string golden(const std::string &Name) {
  return readFile(std::string(FEARLESS_SOURCE_DIR) + "/tests/fixtures/golden/" +
                  Name);
}

struct DeriveCase {
  const char *Path; ///< Relative to the source root.
  const char *Fn;
  const char *Stem; ///< Golden file stem: "<file>.<fn>".
};

const DeriveCase DeriveCases[] = {
    {"examples/dll_remove.fls", "remove_tail", "dll_remove.remove_tail"},
    {"examples/msg_pipeline.fls", "consumer", "msg_pipeline.consumer"},
    {"examples/disconnect_static.fls", "split", "disconnect_static.split"},
    {"tests/fixtures/widened_while.fls", "widen", "widened_while.widen"},
};

TEST(Golden, DeriveAndDotAreByteIdentical) {
  for (const DeriveCase &C : DeriveCases) {
    SCOPED_TRACE(C.Stem);
    Expected<Pipeline> P =
        compile(readFile(std::string(FEARLESS_SOURCE_DIR) + "/" + C.Path));
    ASSERT_TRUE(P.hasValue()) << (P ? "" : P.error().render());
    const CheckedFunction &Fn =
        P->Checked.Functions.at(P->Prog->Names.intern(C.Fn));
    ASSERT_TRUE(Fn.Deriv.has_value());
    EXPECT_EQ(printDerivation(*Fn.Deriv, P->Prog->Names),
              golden(std::string(C.Stem) + ".derive"));
    EXPECT_EQ(printDerivationDot(*Fn.Deriv, P->Prog->Names),
              golden(std::string(C.Stem) + ".dot"));
  }
}

TEST(Golden, CheckStatsAreByteIdentical) {
  for (const char *Shape : {"chain", "cross", "diamond", "mixed", "scc"}) {
    std::string Path = std::string("tests/fixtures/corpus_") + Shape + ".fls";
    SCOPED_TRACE(Path);
    Expected<std::shared_ptr<const CompiledArtifact>> A = buildArtifact(
        readFile(std::string(FEARLESS_SOURCE_DIR) + "/" + Path), {});
    ASSERT_TRUE(A.hasValue()) << (A ? "" : A.error().render());
    EXPECT_EQ(renderCheckOutput(**A, Path, /*Stats=*/true),
              golden(std::string("corpus_") + Shape + ".stats"));
  }
}

} // namespace

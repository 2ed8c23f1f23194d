//===- tests/trie_test.cpp ------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// The bit-trie: a *tree of regions* (every child edge iso, one region per
// node), the opposite discipline from the red-black tree's single-region
// spine. Checked against a std::map model, and whole subtrees cross
// threads with one send.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "runtime/Invariants.h"

#include <gtest/gtest.h>

#include <map>
#include <random>

using namespace fearless;
using namespace fearless::testutil;

namespace {

TEST(Trie, ChecksAndVerifies) {
  auto Built = mustBuild(programs::BitTrie);
  const Pipeline &P = Built->P;
  EXPECT_GT(P.Verified.StepsChecked, 0u);
}

TEST(Trie, InsertLookupMatchesMapModel) {
  std::string Source = std::string(programs::BitTrie) + R"prog(
struct op { key : int; val : int; next : op; used : bool; }
)prog";
  auto Built = mustBuild(programs::BitTrie);
  const Pipeline &P = Built->P;

  for (uint64_t Seed : {1u, 2u, 3u}) {
    std::mt19937_64 Rng(Seed);
    std::map<int64_t, int64_t> Model;

    // Drive insert/lookup through checked code, one machine per op batch:
    // build the trie in-language from a driver function.
    std::string Driver = std::string(programs::BitTrie) +
                         "def drive() : int {\n  let t = trie_new();\n";
    int64_t ExpectSum = 0;
    for (int I = 0; I < 40; ++I) {
      int64_t Key = Rng() % 65536;
      int64_t Val = Rng() % 1000;
      Model[Key] = Val;
      Driver += "  trie_insert(t, " + std::to_string(Key) + ", " +
                std::to_string(Val) + ");\n";
    }
    Driver += "  0";
    for (auto &[Key, Val] : Model) {
      Driver += " + trie_lookup(t, " + std::to_string(Key) + ")";
      ExpectSum += Val;
    }
    // One missing key contributes -1.
    int64_t Missing = 70000;
    Driver += " + trie_lookup(t, " + std::to_string(Missing) + ")";
    ExpectSum -= 1;
    Driver += " + trie_count(t) * 1000000\n}\n";
    ExpectSum += static_cast<int64_t>(Model.size()) * 1000000;

    auto DBuilt = mustBuild(Driver);
    const Pipeline &DP = DBuilt->P;
    Machine M(DP.Checked);
    M.spawn(sym(DP, "drive"));
    Expected<MachineSummary> R = M.run();
    ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
    EXPECT_EQ(R->ThreadResults[0], Value::intVal(ExpectSum));
    EXPECT_EQ(checkStoredRefCounts(M.heap()), std::nullopt);
  }
  (void)P;
  (void)Source;
}

TEST(Trie, SubtreeCrossesThreadsWithOneSend) {
  std::string Source = std::string(programs::BitTrie) + R"prog(
def giver(n : int) : bool {
  let t = trie_new();
  let i = 0;
  while (i < n) {
    trie_insert(t, i * 2, i);      // even keys: zero-subtree
    trie_insert(t, i * 2 + 1, i);  // odd keys: one-subtree
    i = i + 1
  };
  trie_send_zero_subtree(t)
}
)prog";
  auto Built = mustBuild(Source);
  const Pipeline &P = Built->P;
  Machine M(P.Checked);
  M.spawn(sym(P, "giver"), {Value::intVal(20)});
  M.spawn(sym(P, "trie_recv_counter"), {});
  Expected<MachineSummary> R = M.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ(R->ThreadResults[0], Value::boolVal(true));
  // The zero-subtree holds exactly the 20 even keys.
  EXPECT_EQ(R->ThreadResults[1], Value::intVal(20));
  EXPECT_EQ(checkReservationsDisjoint(M), std::nullopt);
  EXPECT_EQ(M.stats().Sends, 1u);
}

TEST(Trie, DominationHoldsOnDeepTree) {
  std::string Source = std::string(programs::BitTrie) + R"prog(
def build(n : int) : trie {
  let t = trie_new();
  let i = 0;
  while (i < n) {
    trie_insert(t, (i * 2654435761) % 65536, i);
    i = i + 1
  };
  t
}
)prog";
  auto Built = mustBuild(Source);
  const Pipeline &P = Built->P;
  Machine M(P.Checked);
  M.spawn(sym(P, "build"), {Value::intVal(64)});
  Expected<MachineSummary> R = M.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  ASSERT_TRUE(R->ThreadResults[0].isLoc());
  // Every iso edge in the trie dominates its subtree.
  EXPECT_EQ(checkIsoDomination(M.heap(), {R->ThreadResults[0].asLoc()}),
            std::nullopt);
}

} // namespace

//===- tests/extras_test.cpp ----------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// The Extras suite (§8 spirit): in-place reversal, insertion sort, and a
// two-stack queue, all checked and executed against reference models.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "runtime/Invariants.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace fearless;
using namespace fearless::testutil;

namespace {

TEST(Extras, SuiteChecksAndVerifies) {
  auto Built = mustBuild(programs::Extras);
  const Pipeline &P = Built->P;
  ASSERT_NE(P.Prog, nullptr);
  EXPECT_GT(P.Verified.StepsChecked, 0u);
}

/// Builds a holder (head over the same sll_node spine) with values.
Loc buildHolder(const Pipeline &P, Machine &M, ThreadId T,
                const std::vector<int64_t> &Values) {
  Loc Holder = M.hostAlloc(T, sym(P, "holder"));
  Value Next = Value::noneVal();
  for (size_t I = Values.size(); I-- > 0;) {
    Loc Node = M.hostAlloc(T, sym(P, "sll_node"));
    Loc Payload = M.hostAlloc(T, sym(P, "data"));
    M.hostSetField(Payload, sym(P, "value"), Value::intVal(Values[I]));
    M.hostSetField(Node, sym(P, "payload"), Value::locVal(Payload));
    M.hostSetField(Node, sym(P, "next"), Next);
    Next = Value::locVal(Node);
  }
  M.hostSetField(Holder, sym(P, "head"), Next);
  return Holder;
}

std::vector<int64_t> readHolder(const Pipeline &P, const Machine &M,
                                Loc Holder) {
  std::vector<int64_t> Out;
  Value Cur = M.hostGetField(Holder, sym(P, "head"));
  while (Cur.isLoc()) {
    Value Payload = M.hostGetField(Cur.asLoc(), sym(P, "payload"));
    Out.push_back(
        M.hostGetField(Payload.asLoc(), sym(P, "value")).asInt());
    Cur = M.hostGetField(Cur.asLoc(), sym(P, "next"));
  }
  return Out;
}

TEST(Extras, ReverseMatchesModel) {
  auto Built = mustBuild(programs::Extras);
  const Pipeline &P = Built->P;
  for (uint64_t Seed : {1u, 2u, 3u}) {
    std::mt19937_64 Rng(Seed);
    std::vector<int64_t> Model(3 + Rng() % 10);
    for (auto &V : Model)
      V = Rng() % 100;
    Machine M(P.Checked);
    ThreadId T = M.createThread();
    Loc Holder = buildHolder(P, M, T, Model);
    M.startThread(T, sym(P, "reverse"), {Value::locVal(Holder)});
    ASSERT_TRUE(M.run().hasValue());
    std::reverse(Model.begin(), Model.end());
    EXPECT_EQ(readHolder(P, M, Holder), Model);
    EXPECT_EQ(checkStoredRefCounts(M.heap()), std::nullopt);
    EXPECT_EQ(checkIsoDomination(M.heap(), {Holder}), std::nullopt);
  }
}

TEST(Extras, SortMatchesModel) {
  auto Built = mustBuild(programs::Extras);
  const Pipeline &P = Built->P;
  for (uint64_t Seed : {4u, 5u, 6u, 7u}) {
    std::mt19937_64 Rng(Seed);
    std::vector<int64_t> Model(1 + Rng() % 16);
    for (auto &V : Model)
      V = Rng() % 50;
    Machine M(P.Checked);
    ThreadId T = M.createThread();
    Loc Src = buildHolder(P, M, T, Model);
    Loc Dst = buildHolder(P, M, T, {});
    M.startThread(T, sym(P, "sort_into"),
                  {Value::locVal(Src), Value::locVal(Dst)});
    Expected<MachineSummary> R = M.run();
    ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
    std::sort(Model.begin(), Model.end());
    EXPECT_EQ(readHolder(P, M, Dst), Model);
    EXPECT_TRUE(readHolder(P, M, Src).empty());
    EXPECT_EQ(checkIsoDomination(M.heap(), {Src, Dst}), std::nullopt);
  }
}

TEST(Extras, SortIsCheckedSorted) {
  // Use the surface-language is_sorted as the oracle, end to end.
  std::string Source = std::string(programs::Extras) + R"prog(
def drive(n : int) : bool {
  let src = new holder();
  let i = 0;
  while (i < n) {
    let p = new data((i * 37) % 11) in { holder_push(src, p) };
    i = i + 1
  };
  let dst = new holder();
  sort_into(src, dst);
  is_sorted(dst) && holder_len(dst) == n
}
)prog";
  auto Built = mustBuild(Source);
  const Pipeline &P = Built->P;
  Machine M(P.Checked);
  M.spawn(sym(P, "drive"), {Value::intVal(40)});
  Expected<MachineSummary> R = M.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ(R->ThreadResults[0], Value::boolVal(true));
}

TEST(Extras, QueueFifoOrder) {
  std::string Source = std::string(programs::Extras) + R"prog(
def drive() : bool {
  let q = queue_new();
  let p1 = new data(1) in { enqueue(q, p1) };
  let p2 = new data(2) in { enqueue(q, p2) };
  let a = let some(d) = dequeue(q) in { d.value } else { -1 };
  let p3 = new data(3) in { enqueue(q, p3) };
  let b = let some(d) = dequeue(q) in { d.value } else { -1 };
  let c = let some(d) = dequeue(q) in { d.value } else { -1 };
  let empty = is_none(dequeue(q));
  a == 1 && b == 2 && c == 3 && empty
}
)prog";
  auto Built = mustBuild(Source);
  const Pipeline &P = Built->P;
  Machine M(P.Checked);
  M.spawn(sym(P, "drive"), {});
  Expected<MachineSummary> R = M.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ(R->ThreadResults[0], Value::boolVal(true));
}

TEST(Extras, QueueDrainSum) {
  std::string Source = std::string(programs::Extras) + R"prog(
def drive(n : int) : int {
  let q = queue_new();
  let i = 0;
  while (i < n) {
    let p = new data(i) in { enqueue(q, p) };
    i = i + 1
  };
  queue_drain_sum(q)
}
)prog";
  auto Built = mustBuild(Source);
  const Pipeline &P = Built->P;
  Machine M(P.Checked);
  M.spawn(sym(P, "drive"), {Value::intVal(20)});
  Expected<MachineSummary> R = M.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ(R->ThreadResults[0], Value::intVal(190));
}

} // namespace

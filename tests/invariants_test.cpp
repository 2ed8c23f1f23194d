//===- tests/invariants_test.cpp ------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// The dynamic invariant validators of §6, plus failure injection: the
// validators must pass on heaps produced by well-typed programs and catch
// hand-corrupted states (simulated races / runtime bugs).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "runtime/Invariants.h"

#include <gtest/gtest.h>

using namespace fearless;
using namespace fearless::testutil;

namespace {

TEST(Invariants, CleanRunPassesAll) {
  auto Built = mustBuild(programs::SllSuite);
  const Pipeline &P = Built->P;
  Machine M(P.Checked);
  ThreadId T = M.createThread();
  Loc List = buildSll(P, M, T, {1, 2, 3, 4, 5});
  M.startThread(T, sym(P, "list_remove_tail"), {Value::locVal(List)});
  ASSERT_TRUE(M.run().hasValue());
  EXPECT_EQ(checkReservationsDisjoint(M), std::nullopt);
  EXPECT_EQ(checkStoredRefCounts(M.heap()), std::nullopt);
  EXPECT_EQ(checkIsoDomination(M.heap(), {List}), std::nullopt);
}

TEST(Invariants, IsoDominationHoldsAfterDllSurgery) {
  auto Built = mustBuild(programs::DllSuite);
  const Pipeline &P = Built->P;
  Machine M(P.Checked);
  ThreadId T = M.createThread();
  Loc List = buildDll(P, M, T, {10, 20, 30});
  M.startThread(T, sym(P, "remove_tail"), {Value::locVal(List)});
  Expected<MachineSummary> R = M.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  // Quiescent roots: the list and the returned payload.
  std::vector<Loc> Roots{List, R->ThreadResults[0].asLoc()};
  EXPECT_EQ(checkIsoDomination(M.heap(), Roots), std::nullopt);
}

TEST(Invariants, InjectedIsoAliasIsCaught) {
  auto Built = mustBuild(programs::SllSuite);
  const Pipeline &P = Built->P;
  Machine M(P.Checked);
  ThreadId T = M.createThread();
  Loc List = buildSll(P, M, T, {1, 2});
  // Corrupt: alias the first node's payload from the second node's
  // payload field — the first iso edge no longer dominates.
  Value Hd = M.hostGetField(List, sym(P, "hd"));
  Value Second = M.hostGetField(Hd.asLoc(), sym(P, "next"));
  Value Payload1 = M.hostGetField(Hd.asLoc(), sym(P, "payload"));
  M.hostSetField(Second.asLoc(), sym(P, "payload"), Payload1);
  auto Problem = checkIsoDomination(M.heap(), {List});
  ASSERT_TRUE(Problem.has_value());
  EXPECT_NE(Problem->find("does not dominate"), std::string::npos);
}

TEST(Invariants, InjectedRefCountDriftIsCaught) {
  auto Built = mustBuild(programs::DllSuite);
  const Pipeline &P = Built->P;
  Machine M(P.Checked);
  ThreadId T = M.createThread();
  Loc List = buildDll(P, M, T, {1, 2, 3});
  Value Hd = M.hostGetField(List, sym(P, "hd"));
  // Corrupt the stored count directly.
  M.heap().get(Hd.asLoc()).StoredRefCount += 1;
  auto Problem = checkStoredRefCounts(M.heap());
  ASSERT_TRUE(Problem.has_value());
  EXPECT_NE(Problem->find("refcount"), std::string::npos);
}

TEST(Invariants, InjectedReservationOverlapIsCaught) {
  auto Built = mustBuild(programs::MessagePassing);
  const Pipeline &P = Built->P;
  Machine M(P.Checked);
  ThreadId T1 = M.createThread();
  ThreadId T2 = M.createThread();
  Loc L1 = buildSll(P, M, T1, {1});
  // Corrupt: put L1 into T2's reservation as well.
  const_cast<ThreadState &>(M.threads()[T2]).Reservation.insert(L1.Index);
  auto Problem = checkReservationsDisjoint(M);
  ASSERT_TRUE(Problem.has_value());
  EXPECT_NE(Problem->find("reservations of both"), std::string::npos);
  (void)T1;
}

TEST(Invariants, ReservationClosureCatchesEscapedReference) {
  auto Built = mustBuild(programs::SllSuite);
  const Pipeline &P = Built->P;
  Machine M(P.Checked);
  ThreadId T = M.createThread();
  Loc List = buildSll(P, M, T, {1, 2});
  // Start the thread so it is live (closure skips finished threads).
  M.startThread(T, sym(P, "length"), {Value::locVal(List)});
  // Corrupt: remove a reachable node from the reservation.
  Value Hd = M.hostGetField(List, sym(P, "hd"));
  const_cast<ThreadState &>(M.threads()[T])
      .Reservation.erase(Hd.asLoc().Index);
  auto Problem = checkReservationClosure(M);
  ASSERT_TRUE(Problem.has_value());
  EXPECT_NE(Problem->find("outside its reservation"), std::string::npos);
}

TEST(Invariants, StuckStateOnInjectedReservationViolation) {
  // A thread whose argument list was never placed in its reservation gets
  // stuck on the very first field access — the dynamic check of §3.2.
  auto Built = mustBuild(programs::SllSuite);
  const Pipeline &P = Built->P;
  Machine M(P.Checked);
  ThreadId Owner = M.createThread();
  Loc List = buildSll(P, M, Owner, {1, 2, 3});
  ThreadId Thief = M.createThread();
  M.startThread(Thief, sym(P, "length"), {Value::locVal(List)});
  Expected<MachineSummary> R = M.run();
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().Message.find("reservation"), std::string::npos);
}

TEST(Invariants, ViolationInvisibleWithChecksErased) {
  // The same injected violation goes unnoticed when the dynamic checks
  // are erased — demonstrating that the checks (not luck) catch it, and
  // why erasure is only sound for well-typed programs.
  auto Built = mustBuild(programs::SllSuite);
  const Pipeline &P = Built->P;
  MachineOptions Opts;
  Opts.CheckReservations = false;
  Machine M(P.Checked, Opts);
  ThreadId Owner = M.createThread();
  Loc List = buildSll(P, M, Owner, {1, 2, 3});
  ThreadId Thief = M.createThread();
  M.startThread(Thief, sym(P, "length"), {Value::locVal(List)});
  Expected<MachineSummary> R = M.run();
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->ThreadResults[Thief], Value::intVal(3));
}

} // namespace

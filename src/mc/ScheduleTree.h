//===- mc/ScheduleTree.h - DFS stack of choice points -----------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The explorer's explicit DFS stack: one ChoiceNode per scheduler turn
/// of the current execution, carrying the enabled set, the DPOR
/// backtrack set, the already-explored alternatives (with their first
/// actions, which become sleep-set entries for later siblings), and the
/// entry sleep set. Backtracking to node k restores the machine
/// checkpoint saved before node k first stepped (mc/Dpor.cpp keeps one
/// per branching node on the path) and steps Nodes[k].Chosen, so the
/// prefix Nodes[0..k) never runs again.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_MC_SCHEDULETREE_H
#define FEARLESS_MC_SCHEDULETREE_H

#include "mc/Replay.h"
#include "runtime/Machine.h"

#include <vector>

namespace fearless {
namespace mc {

/// One scheduler turn of the execution being explored.
struct ChoiceNode {
  /// Thread indices runnable at this point.
  std::vector<uint32_t> Enabled;
  /// Threads to explore from here (persistent set under construction).
  /// Always contains Chosen; DPOR race detection grows it.
  std::vector<uint32_t> Backtrack;
  /// Alternatives already fully explored, with the action each took as
  /// its first step — the sleep-set entries for the siblings after it.
  std::vector<uint32_t> Done;
  std::vector<McStepRecord> DoneRecords;
  /// Sleep set on entry to this node (inherited, filtered by
  /// dependence): threads whose next step is already covered by an
  /// earlier branch.
  std::vector<McStepRecord> Sleep;
  /// The thread currently being explored and what its step did.
  uint32_t Chosen = 0;
  McStepRecord Record;
  /// Enabled.size() >= 2: this turn consumes a schedule-file choice.
  bool Branching = false;
  /// Preemptions on the path before this turn; restored with the node's
  /// checkpoint so a resumed branch keeps its preemption budget.
  int64_t PreemptsBefore = 0;
};

/// The DFS stack plus the bookkeeping the explorer shares with reports.
class ScheduleTree {
public:
  std::vector<ChoiceNode> Nodes;

  /// Adds \p Thread to \p N's backtrack set unless already tracked.
  static void addBacktrack(ChoiceNode &N, uint32_t Thread);
  /// True when \p Thread appears in \p N.Enabled.
  static bool isEnabled(const ChoiceNode &N, uint32_t Thread);
  /// True when \p Thread sleeps at \p N (entry sleep set or an explored
  /// sibling — a sleeping thread's next step is deterministic, so
  /// thread identity is the whole key).
  static bool isSleeping(const ChoiceNode &N, uint32_t Thread);

  /// The schedule (branching choices only) for the prefix up to and
  /// including node \p UpTo; pass Nodes.size() for the whole stack.
  Schedule prefixSchedule(size_t UpTo) const;

  /// Retires the deepest node's current choice and advances to the next
  /// unexplored backtrack alternative, popping exhausted nodes. Returns
  /// false when the whole space is exhausted. Backtrack candidates that
  /// are asleep are retired unexplored and counted in \p PrunedOut;
  /// those whose switch would take the path past \p PreemptionBound
  /// preemptions (< 0 = unbounded) are retired unexplored and counted in
  /// \p BoundClippedOut.
  bool advance(int64_t PreemptionBound, uint64_t &PrunedOut,
               uint64_t &BoundClippedOut);
};

} // namespace mc
} // namespace fearless

#endif // FEARLESS_MC_SCHEDULETREE_H

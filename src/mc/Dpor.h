//===- mc/Dpor.h - Stateless model checking with DPOR -----------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stateless model checker (no visited-state table): a DFS over the
/// machine's schedule space by checkpointed backtracking. One machine
/// serves the whole exploration. Before a branching turn first steps,
/// the machine saves a checkpoint (Machine::Checkpoint); backtracking to
/// that turn restores it and steps the next alternative, so every edge
/// of the schedule tree executes once. Memory: one checkpoint per
/// branching node on the current DFS path, in per-depth slots that keep
/// their buffers. The search is pruned by persistent-set DPOR (race
/// detection over mc/DependencyRelation.h adds backtrack points at the
/// latest dependent turn) plus sleep sets (explored first-actions shadow
/// redundant siblings), optionally bounded by preemption count
/// (iterative context bounding), depth, and schedule budget.
///
/// Properties checked over the entire explored space: no deadlock, no
/// stuck thread (reservation violations surface here), no step-validator
/// failure, and — unless fault injection legitimately diversifies
/// outcomes — one canonical result fingerprint across every schedule
/// (the confluence / schedule-independence claim). The first violation
/// stops exploration and yields the branching-choice prefix as a
/// counterexample schedule (mc/Replay.h replays it).
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_MC_DPOR_H
#define FEARLESS_MC_DPOR_H

#include "mc/Replay.h"
#include "runtime/Machine.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>

namespace fearless {
namespace mc {

/// Exploration budgets and modes (`fearlessc mc --mc-*`).
struct McOptions {
  /// Max scheduler turns per execution (--mc-depth); exceeding it clips
  /// the branch and marks the report incomplete.
  uint64_t MaxDepth = 100000;
  /// Max schedules to explore (--mc-schedules); 0 = unlimited.
  uint64_t MaxSchedules = 100000;
  /// Iterative context bounding (--mc-preemptions): max preemptive
  /// switches (away from a still-runnable thread) per schedule. < 0 =
  /// unbounded. Applies to every branch: the first continuation of a new
  /// turn and each backtrack alternative (race-detected or, in naive
  /// mode, every enabled thread). A bound turns the search into
  /// heuristic bug hunting — coverage holds only for the bounded space.
  int64_t PreemptionBound = -1;
  /// DPOR + sleep sets (--mc-dpor=off disables both: naive DFS over
  /// every interleaving, the bench baseline and the paranoia mode).
  bool UseDpor = true;
  /// Fail when two schedules finish with different canonical result
  /// fingerprints. Off under fault injection, where divergence is
  /// legitimate (a fault may kill one interleaving and not another).
  bool CheckDivergence = true;
  /// Extra end-state property, evaluated on every completed schedule.
  std::function<std::optional<std::string>(const Machine &)> Validate;
};

/// A property violation plus the schedule that reaches it.
struct McCounterexample {
  Schedule Sched;
  std::string Reason;
  /// Per-thread blocked-state dump at the failure point.
  std::string BlockedDump;
};

/// What the exploration covered.
struct McReport {
  uint64_t SchedulesExplored = 0;
  /// Redundant branches retired by sleep sets without re-execution.
  uint64_t SchedulesPruned = 0;
  /// Branches left unexplored because they need more preemptions than
  /// McOptions::PreemptionBound allows (not redundant, so not pruned).
  uint64_t SchedulesBoundClipped = 0;
  /// Completed schedules whose end state was fingerprinted.
  uint64_t StatesFingerprinted = 0;
  /// Steps executed: each schedule-tree edge once, since a restore
  /// re-runs nothing.
  uint64_t StepsExecuted = 0;
  uint64_t MaxDepthSeen = 0;
  /// False when a depth/schedule budget clipped the space; Clipped says
  /// which. (A preemption bound does not clear this — it redefines the
  /// space instead.)
  bool Complete = true;
  std::string Clipped;
  std::optional<McCounterexample> Counterexample;
};

/// Builds the machine an exploration runs on; explore() calls it once.
/// Must arm a *fresh* FaultInjector when faults are in play: the
/// injector's occurrence counters are run-local state, which the
/// machine's checkpoints save and restore along with the heap.
using MachineFactory = std::function<std::unique_ptr<Machine>()>;

/// Explores the bounded schedule space of the machines \p Factory
/// builds. Returns the coverage report; a counterexample lives inside
/// it, not in the error channel (errors are infrastructure failures
/// such as a null factory or a restore that changed the enabled set).
Expected<McReport> explore(const MachineFactory &Factory,
                           const McOptions &Opts);

} // namespace mc
} // namespace fearless

#endif // FEARLESS_MC_DPOR_H

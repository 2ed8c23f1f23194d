//===- support/Metrics.h - Runtime metrics registry -------------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime observability layer: cheap per-thread counters
/// (MachineStats) that every stepping thread updates without
/// synchronization, and the RuntimeMetrics registry that aggregates them
/// at join together with executor- and channel-level counters. The
/// registry renders to single-line JSON with stable keys so bench runs
/// and `fearlessc --metrics` output stay comparable across revisions.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_SUPPORT_METRICS_H
#define FEARLESS_SUPPORT_METRICS_H

#include <cstdint>
#include <functional>
#include <string>

namespace fearless {

/// Per-thread interpreter counters. Each thread owns one instance and
/// updates it lock-free; a machine aggregates them at join.
struct MachineStats {
  uint64_t Steps = 0;
  uint64_t ReservationChecks = 0;
  uint64_t DisconnectChecks = 0;
  /// `if disconnected` checks that actually found the graphs disjoint.
  uint64_t DisconnectTaken = 0;
  /// Checks answered from the static verdict table with no traversal.
  uint64_t DisconnectElided = 0;
  uint64_t DisconnectObjectsVisited = 0;
  uint64_t DisconnectEdgesTraversed = 0;
  uint64_t Sends = 0;
  uint64_t Recvs = 0;
  uint64_t Allocations = 0;
  /// Bytecode instructions retired by the VM engine (zero under the
  /// tree-walking interpreter).
  uint64_t VmInstructions = 0;
  /// Field-access inline-cache hits/misses (VM engine only).
  uint64_t IcHits = 0;
  uint64_t IcMisses = 0;

  /// Accumulates another stats block. Supervised restarts use it to fold
  /// a dying attempt's work into the thread's lifetime totals.
  void merge(const MachineStats &O);
};

/// Aggregated counters for one runtime execution (one Machine::run or
/// ParallelExec::run). The interpreter and VM counters are the inherited
/// MachineStats block, summed over the per-thread stats at join; the
/// executor and channel counters are filled in by the owning machine.
struct RuntimeMetrics : MachineStats {
  /// Dynamic checks the erased-mode codegen omitted (compile-time count;
  /// zero in checked mode and under the interpreter).
  uint64_t ChecksErased = 0;

  // Static-analysis counters (filled at analyze/compile time by the
  // driver, not by the execution engines): the per-site verdict split of
  // the region-graph analysis whose table feeds disconnect elision.
  uint64_t AnalysisMustDisconnected = 0;
  uint64_t AnalysisMustConnected = 0;
  uint64_t AnalysisUnknown = 0;

  // Executor counters.
  uint64_t ThreadsSpawned = 0;
  uint64_t ThreadsFinished = 0;
  /// Threads stopped cleanly mid-recv because every possible sender had
  /// already finished (channel closure), or cancelled by an abort.
  uint64_t ThreadsCancelled = 0;
  uint64_t ThreadsErrored = 0;
  /// Objects in the heap when the run ended.
  uint64_t HeapObjects = 0;
  uint64_t WallMicros = 0;
  /// 1 when the watchdog had to abort the run.
  uint64_t WatchdogFired = 0;

  // Task-scheduler counters (ParallelExec only; zero under the
  // deterministic machine).
  /// Language threads admitted to the task scheduler as green threads.
  uint64_t TasksSpawned = 0;
  /// Tasks taken from another worker's run queue.
  uint64_t Steals = 0;
  /// Times a task parked on a channel waiting for a value (instead of
  /// blocking an OS thread in recv).
  uint64_t Parks = 0;

  // Robustness counters (fault injection + supervision).
  /// Faults fired by the deterministic injector during the run.
  uint64_t FaultsInjected = 0;
  /// Thread attempts restarted by the supervision policy.
  uint64_t ThreadsRestarted = 0;
  /// Total supervision backoff slept before restarts (computed, so the
  /// value is deterministic for a given plan/seed).
  uint64_t RestartBackoffMillis = 0;
  /// Faults that could not be recovered and escalated to a run abort
  /// (restart budget exhausted, effects already externalized, or
  /// supervision disabled).
  uint64_t FaultsEscalated = 0;

  // Channel counters (ParallelExec only).
  uint64_t ChannelsCreated = 0;
  uint64_t ChannelSends = 0;
  uint64_t ChannelRecvs = 0;
  /// Highest queue depth observed on any single channel.
  uint64_t ChannelPeakDepth = 0;
  /// Values discarded because they were sent into a closing run.
  uint64_t ChannelDroppedValues = 0;

  // Model-checker counters (`fearlessc mc` only; zero elsewhere).
  /// Full executions the explorer ran to an end state.
  uint64_t McSchedulesExplored = 0;
  /// Redundant branches sleep-set pruning retired without re-execution.
  uint64_t McSchedulesPruned = 0;
  /// Completed end states canonically fingerprinted for the
  /// schedule-independence check.
  uint64_t McStatesFingerprinted = 0;

  // Daemon counters (fearlessd only; zero in standalone runs). The
  // daemon's `metrics` op reports its lifetime aggregate with these
  // gauges stamped in (docs/SERVER.md).
  /// Sessions currently owned by a server worker.
  uint64_t SessionsActive = 0;
  /// Derivation-cache lookups served without compiling (includes
  /// requests coalesced onto another session's in-flight compile).
  uint64_t CacheHits = 0;
  /// Derivation-cache lookups that had to compile.
  uint64_t CacheMisses = 0;
  /// Connections refused with a typed `overloaded` response because the
  /// pending-session queue was full.
  uint64_t RequestsRejected = 0;

  /// Accumulates one thread's interpreter counters (called at join).
  void mergeThread(const MachineStats &S) { MachineStats::merge(S); }

  /// Accumulates a whole run's metrics — every counter summed. The
  /// daemon folds each served run into its lifetime aggregate with this
  /// (gauges like SessionsActive are overwritten afterwards, not summed).
  void merge(const RuntimeMetrics &O);

  /// Visits every counter as a (name, value) pair in a stable order.
  void forEach(
      const std::function<void(const char *, uint64_t)> &Fn) const;

  /// Renders the metrics as a single-line JSON object with stable keys,
  /// suitable for BENCH_*.json side files.
  std::string toJson() const;
};

} // namespace fearless

#endif // FEARLESS_SUPPORT_METRICS_H

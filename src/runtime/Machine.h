//===- runtime/Machine.h - Concurrent configuration -------------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrent configuration of §7: one shared heap h and n threads,
/// each with its own reservation d_i, stack s_i, and control e_i. The
/// machine steps threads under a deterministic (optionally seeded)
/// scheduler and pairs blocked send/recv threads per rule EC3: the sender
/// chooses a root location, the live-set reachable from it must lie in
/// the sender's reservation, and the whole set transfers to the receiver.
///
/// The machine also exposes a host API for building object graphs
/// directly into a thread's reservation (tests and examples use it to
/// call functions like remove_tail on pre-built lists).
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_RUNTIME_MACHINE_H
#define FEARLESS_RUNTIME_MACHINE_H

#include "checker/Checker.h"
#include "runtime/Heap.h"
#include "runtime/Interp.h"
#include "support/Expected.h"
#include "support/Metrics.h"

#include <deque>
#include <functional>
#include <optional>

namespace fearless {

class Machine;

/// Machine configuration.
struct MachineOptions {
  /// Dynamic reservation checks (§3.2). Erasable for well-typed programs;
  /// bench_runtime measures exactly this toggle.
  bool CheckReservations = true;
  /// Use the naive exact `if disconnected` instead of the §5.2 refcount
  /// algorithm (for cross-validation and the bench baseline).
  bool UseNaiveDisconnect = false;
  /// Per-site verdicts from the static region-graph analysis; must
  /// outlive the machine. Null disables elision regardless of
  /// ElideDisconnect.
  const DisconnectVerdictTable *StaticVerdicts = nullptr;
  /// Answer must-* `if disconnected` sites from StaticVerdicts without
  /// running the traversal (`fearlessc run --no-elide` turns this off).
  bool ElideDisconnect = true;
  /// Re-run the real traversal on every elided check and fail on
  /// disagreement. Defaults on in debug builds; tests enable it
  /// explicitly elsewhere.
#ifndef NDEBUG
  bool CrossCheckElision = true;
#else
  bool CrossCheckElision = false;
#endif
  uint64_t MaxSteps = 500'000'000;
  /// Deterministic fault injection (support/FaultInjector.h): consulted
  /// at thread start, per scheduler pulse (`sched.step`), and by the
  /// interpreter's instrumented sites. Null = disabled (one pointer test
  /// per site). Must outlive run().
  FaultInjector *Faults = nullptr;
  /// Structured tracing (support/Trace.h): when set, run() registers one
  /// ring buffer per language thread (plus a machine control buffer) and
  /// records send/recv wait spans, `if disconnected` traversal spans,
  /// and interpreter progress ticks. Null = disabled (no overhead beyond
  /// a pointer test per site). Must outlive the machine's run().
  TraceSession *Trace = nullptr;
  /// Soundness-testing hook: run after every small step; a returned
  /// message aborts the run. Tests install the §6 invariant validators
  /// here to check I1/I2-style properties at *every* intermediate state.
  std::function<std::optional<std::string>(const Machine &)>
      StepValidator;
  /// When set, threads execute this compiled bytecode (vm/Vm.h) instead
  /// of tree-walking the AST. Must be lowered from the same
  /// CheckedProgram and outlive run(). Note the VM batches instructions,
  /// so one "step" (MaxSteps, StepValidator, scheduler pulse) covers up
  /// to a batch of ops.
  const vm::CompiledProgram *VmCode = nullptr;
};

/// Result of a completed run.
struct MachineSummary {
  std::vector<Value> ThreadResults;
  uint64_t Steps = 0;
};

/// What one scheduled step did: the model checker's view of a transition
/// (src/mc/DependencyRelation.h decides commutativity over these) and
/// the payload of deadlock/counterexample reports.
struct McStepRecord {
  enum class Kind : uint8_t {
    Local,     ///< Progressed without touching the communication layer.
    Finish,    ///< The thread produced its result.
    BlockSend, ///< Blocked in send-τ with no matching receiver yet.
    BlockRecv, ///< Blocked in recv-τ with no matching sender yet.
    CommPair,  ///< Blocked and immediately paired (the EC3 transfer ran).
  };
  ThreadId Thread = 0;
  Kind StepKind = Kind::Local;
  /// Valid for BlockSend/BlockRecv/CommPair: the rendezvous type τ.
  /// Type-routed pairing makes τ the channel identity, so two comm steps
  /// of different types never interact.
  bool HasCommType = false;
  Type CommType{};
  /// Valid for CommPair: the thread resumed on the other side.
  ThreadId Partner = 0;
  /// Bitmask of FaultPoint indices whose occurrence counter advanced
  /// during the step. Armed fault points are global mutable state (the
  /// injector's triggers are occurrence-indexed), so two steps that
  /// consult the same armed point do not commute.
  uint32_t FaultPointsTouched = 0;
};

/// State of a stepping session between choices.
enum class MachineProgress : uint8_t { Running, Done, Deadlock };

/// The concurrent abstract machine.
class Machine {
public:
  /// \p Checked must outlive the machine. The program is expected to have
  /// passed the checker; running unchecked programs is possible (tests use
  /// it for failure injection) and surfaces violations as errors.
  explicit Machine(const CheckedProgram &Checked, MachineOptions Opts = {});

  /// Creates a thread that will run \p FnName(\p Args). Regionful
  /// arguments must reference graphs previously built into this thread's
  /// reservation via the host API.
  ThreadId spawn(Symbol FnName, std::vector<Value> Args = {});

  /// Two-phase spawn: create the thread first (so host allocation can
  /// target its reservation), build graphs, then start it.
  ThreadId createThread();
  void startThread(ThreadId T, Symbol FnName, std::vector<Value> Args);

  //===--------------------------------------------------------------------===
  // Host-side graph construction (before run())
  //===--------------------------------------------------------------------===

  /// Allocates a default-initialized object into thread \p T's
  /// reservation.
  Loc hostAlloc(ThreadId T, Symbol StructName);
  /// Writes a field by name (maintains stored reference counts).
  void hostSetField(Loc L, Symbol Field, Value V);
  /// Reads a field by name.
  Value hostGetField(Loc L, Symbol Field) const;

  //===--------------------------------------------------------------------===
  // Execution
  //===--------------------------------------------------------------------===

  /// Runs until every thread finishes. \p Seed selects the interleaving:
  /// 0 is round-robin; otherwise a seeded xorshift picks among runnable
  /// threads. Fails on stuck threads (reservation violations / runtime
  /// faults), deadlock, or step exhaustion. Implemented on the stepping
  /// API below, so run() and externally driven schedules share one code
  /// path.
  Expected<MachineSummary> run(uint64_t Seed = 0);
  /// run() without the wall-clock timing: the one seeded scheduling
  /// loop. When \p Choices is set, every pick made among two or more
  /// runnable threads is appended to it, so the interleaving can be
  /// replayed as a schedule (mc::runRecording).
  Expected<MachineSummary> runTurns(uint64_t Seed,
                                    std::vector<uint32_t> *Choices = nullptr);

  //===--------------------------------------------------------------------===
  // Incremental stepping (the model checker / schedule replay drive the
  // scheduler choice themselves)
  //===--------------------------------------------------------------------===

  /// Opens a stepping session: trace buffers, interpreter services, and
  /// the thread.start fault points (which fire before any choice is
  /// made). Fails when an injected thread.start fault aborts the run.
  ExpectedVoid beginStepping();
  /// Classifies the current configuration. Attempts EC3 pairing first
  /// when no thread is runnable (mirroring run()), so Deadlock really
  /// means no step and no pairing can happen. Fails when the pairing
  /// attempt itself is illegal (reservation violation / trap).
  Expected<MachineProgress> checkProgress();
  /// Thread indices runnable after the last checkProgress() call.
  const std::vector<size_t> &runnableThreads() const;
  /// Advances thread \p Pick by one small step, mirroring exactly one
  /// scheduler turn of run(): sched.step fault point, the step itself,
  /// the step validator, the step limit, and eager EC3 pairing when the
  /// step blocked. Returns what the step did.
  Expected<McStepRecord> stepChosen(size_t Pick);
  /// Closes the session once checkProgress() returned Done: summary,
  /// machine.run trace span, aggregated step count.
  Expected<MachineSummary> finishStepping();

  /// Everything a stepping session mutates, for checkpointed
  /// backtracking (mc/Dpor.h): heap objects [0, size), deep copies of
  /// the threads (VmState included), MachineStats, the last fault, the
  /// step counter, and the armed FaultInjector's counters. Saving into
  /// a used checkpoint refills its buffers in place.
  struct Checkpoint {
    Heap::Snapshot Objects;
    std::vector<ThreadState> Threads;
    MachineStats Stats;
    std::optional<RuntimeFault> LastFault;
    uint64_t Steps = 0;
    FaultInjector::Counters Faults;
  };
  /// Captures the state between two turns of a stepping session.
  void saveCheckpoint(Checkpoint &Out) const;
  /// Returns the session to \p In's state, as if the turns since it was
  /// saved never ran; call checkProgress() before the next step.
  void restoreCheckpoint(const Checkpoint &In);

  /// The deadlock diagnostic run() and the model checker report: the
  /// headline plus a per-thread blocked-state dump.
  std::string deadlockMessage() const;
  /// One line per unfinished thread: the blocking channel op, its
  /// rendezvous type, the pending payload (with live-set size), and the
  /// reservation size.
  std::string blockedStateDump() const;
  /// Order-insensitive fingerprint of the final configuration: thread
  /// statuses and results with heap locations renamed in DFS visit
  /// order, so two schedules that allocate in different orders compare
  /// equal iff their results are isomorphic. The model checker uses it
  /// for the schedule-independence (confluence) property.
  uint64_t resultFingerprint() const;

  Heap &heap() { return TheHeap; }
  const Heap &heap() const { return TheHeap; }
  const MachineStats &stats() const { return Stats; }
  /// Aggregated counters in the common RuntimeMetrics schema (the same
  /// registry the real-thread executor reports).
  RuntimeMetrics metrics() const;
  const std::vector<ThreadState> &threads() const { return Threads; }
  /// The structured fault that failed the last run(), when the failure
  /// was a runtime trap or an injected fault (empty for plain errors
  /// such as deadlock or a reservation violation). fearlessc maps this
  /// to its distinct runtime-fault exit code.
  const std::optional<RuntimeFault> &lastFault() const {
    return LastFault;
  }
  bool inReservation(ThreadId T, Loc L) const {
    return Threads[T].Reservation.count(L.Index) != 0;
  }

private:
  /// Attempts to pair one blocked sender with a type-compatible blocked
  /// receiver (EC3). Returns true if a transfer happened; the error slot
  /// is set when the transfer itself is illegal.
  bool tryCommunicate(std::string &Error);
  /// tryCommunicate behind the trap frontier: an EC3 walk over an
  /// invalid location surfaces as a typed fault, not a process death.
  bool communicate(std::string &Error);

  bool valueMatchesType(const Value &V, const Type &Ty) const;

  /// Per-session state of the incremental stepping API.
  struct SteppingState {
    InterpServices Services;
    TraceBuffer *TraceCtl = nullptr;
    uint64_t TraceRunStart = 0;
    uint64_t Steps = 0;
    std::vector<size_t> Runnable;
    std::vector<ThreadStatus> StatusScratch;
  };
  std::optional<SteppingState> Stepping;

  const CheckedProgram &Checked;
  MachineOptions Opts;
  Heap TheHeap;
  MachineStats Stats;
  std::vector<ThreadState> Threads;
  std::optional<RuntimeFault> LastFault;
  /// Wall-clock duration of the last run(), reported by metrics().
  uint64_t WallMicros = 0;
  /// Reusable send-path buffers (EC3 live-set transfer): liveSetInto
  /// clears and refills them, so steady-state sends allocate nothing.
  std::vector<Loc> LiveBuf;
  EpochSet LiveSeen;
};

} // namespace fearless

#endif // FEARLESS_RUNTIME_MACHINE_H

//===- mc/Dpor.cpp --------------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "mc/Dpor.h"

#include "mc/DependencyRelation.h"
#include "mc/ScheduleTree.h"
#include "runtime/RuntimeFault.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace fearless;
using namespace fearless::mc;

namespace {

/// True when \p R can be dependent with a step of another thread at all
/// (comm step or armed-fault-counter touch). Local pure steps commute
/// with everything cross-thread, so race detection skips them — that is
/// what keeps the scan linear in the number of *interacting* steps, not
/// the execution length.
bool interacting(const McStepRecord &R) {
  if (R.FaultPointsTouched)
    return true;
  switch (R.StepKind) {
  case McStepRecord::Kind::BlockSend:
  case McStepRecord::Kind::BlockRecv:
  case McStepRecord::Kind::CommPair:
    return true;
  case McStepRecord::Kind::Local:
  case McStepRecord::Kind::Finish:
    return false;
  }
  return false;
}

std::string hex(uint64_t V) {
  char Buf[19];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// Flanagan–Godefroid race detection for the step just executed at
/// \p Depth: find the latest earlier interacting step of another thread
/// it depends on and request that the dependent thread (or, when it was
/// not enabled there, every enabled thread) be explored from that point.
void raceDetect(ScheduleTree &Tree, const std::vector<size_t> &Interacting,
                size_t Depth, const McStepRecord &Rec) {
  for (auto It = Interacting.rbegin(); It != Interacting.rend(); ++It) {
    size_t J = *It;
    if (J >= Depth)
      continue;
    const McStepRecord &Prev = Tree.Nodes[J].Record;
    if (Prev.Thread == Rec.Thread)
      continue;
    if (!dependent(Prev, Rec))
      continue;
    ChoiceNode &NJ = Tree.Nodes[J];
    if (ScheduleTree::isEnabled(NJ, Rec.Thread))
      ScheduleTree::addBacktrack(NJ, Rec.Thread);
    else
      for (uint32_t E : NJ.Enabled)
        ScheduleTree::addBacktrack(NJ, E);
    return;
  }
}

} // namespace

Expected<McReport> mc::explore(const MachineFactory &Factory,
                               const McOptions &Opts) {
  if (!Factory)
    return fail("mc: no machine factory");
  std::unique_ptr<Machine> M = Factory();
  if (!M)
    return fail("mc: machine factory returned no machine");
  McReport Rep;
  ScheduleTree Tree;
  std::optional<uint64_t> BaselineFp;

  auto InjectedFault = [&M] {
    return M->lastFault() &&
           M->lastFault()->Kind == RuntimeFaultKind::Injected;
  };

  if (ExpectedVoid B = M->beginStepping(); !B) {
    // A thread.start fault fires before any scheduling choice, so it is
    // schedule-independent: an allowed fault outcome, never a
    // counterexample.
    if (InjectedFault())
      ++Rep.SchedulesExplored;
    else
      Rep.Counterexample = McCounterexample{
          Tree.prefixSchedule(0), B.error().Message, M->blockedStateDump()};
    return Rep;
  }

  /// Checkpoints[k] holds the machine just before node k stepped; only
  /// branching nodes save one, and the slots keep their buffers across
  /// the whole exploration.
  std::vector<Machine::Checkpoint> Checkpoints;
  size_t Depth = 0;
  uint32_t Prev = UINT32_MAX;
  int64_t Preempts = 0;
  std::vector<McStepRecord> CurSleep, NextSleep;
  /// Node indices whose records can interact cross-thread — the only
  /// candidates race detection needs to scan.
  std::vector<size_t> Interacting;

  while (true) {
    enum class End { Completed, FaultEnded, Clipped, Redundant, OutOfBound };
    End EndKind = End::Completed;
    std::optional<McCounterexample> Violation;

    while (true) {
      Expected<MachineProgress> P = M->checkProgress();
      if (!P) {
        if (InjectedFault()) {
          EndKind = End::FaultEnded;
        } else {
          Violation = McCounterexample{Tree.prefixSchedule(Depth),
                                       P.error().Message,
                                       M->blockedStateDump()};
        }
        break;
      }
      if (*P == MachineProgress::Done)
        break;
      if (*P == MachineProgress::Deadlock) {
        // deadlockMessage() already embeds the blocked-state dump.
        Violation = McCounterexample{Tree.prefixSchedule(Depth),
                                     M->deadlockMessage(), ""};
        break;
      }
      if (Depth >= Opts.MaxDepth) {
        EndKind = End::Clipped;
        break;
      }

      const std::vector<size_t> &Runnable = M->runnableThreads();
      bool Frontier = Depth >= Tree.Nodes.size();
      uint32_t Chosen;
      if (!Frontier) {
        // The node just restored; its next alternative steps now. The
        // machine is deterministic, so the enabled set must reproduce.
        ChoiceNode &N = Tree.Nodes[Depth];
        bool Same = N.Enabled.size() == Runnable.size();
        for (size_t I = 0; Same && I < Runnable.size(); ++I)
          Same = N.Enabled[I] == Runnable[I];
        if (!Same)
          return fail("mc: nondeterministic restore — the enabled set "
                      "changed under an identical choice prefix "
                      "(machine bug)");
        Chosen = N.Chosen;
      } else {
        ChoiceNode N;
        N.Enabled.reserve(Runnable.size());
        for (size_t R : Runnable)
          N.Enabled.push_back(static_cast<uint32_t>(R));
        N.Branching = N.Enabled.size() >= 2;
        N.Sleep = CurSleep;
        N.PreemptsBefore = Preempts;
        std::vector<uint32_t> Cands;
        for (uint32_t T : N.Enabled)
          if (!Opts.UseDpor || !ScheduleTree::isSleeping(N, T))
            Cands.push_back(T);
        if (Opts.PreemptionBound >= 0 &&
            Preempts >= Opts.PreemptionBound && Prev != UINT32_MAX &&
            ScheduleTree::isEnabled(N, Prev)) {
          // Budget spent: only the non-preemptive continuation may go
          // on. If it is asleep, the remaining continuations all need a
          // preemption — outside the bounded space.
          if (std::find(Cands.begin(), Cands.end(), Prev) != Cands.end()) {
            Cands.assign(1, Prev);
          } else {
            EndKind = End::OutOfBound;
            break;
          }
        }
        if (Cands.empty()) {
          EndKind = End::Redundant;
          break;
        }
        Chosen = std::find(Cands.begin(), Cands.end(), Prev) != Cands.end()
                     ? Prev
                     : Cands[0];
        N.Chosen = Chosen;
        if (Opts.UseDpor)
          N.Backtrack.push_back(Chosen);
        else
          N.Backtrack = N.Enabled; // naive DFS: explore everything
        if (N.Branching) {
          if (Checkpoints.size() <= Depth)
            Checkpoints.resize(Depth + 1);
          M->saveCheckpoint(Checkpoints[Depth]);
        }
        Tree.Nodes.push_back(std::move(N));
      }

      ChoiceNode &Node = Tree.Nodes[Depth];
      if (Prev != UINT32_MAX && Chosen != Prev &&
          ScheduleTree::isEnabled(Node, Prev))
        ++Preempts;

      Expected<McStepRecord> R = M->stepChosen(Chosen);
      ++Rep.StepsExecuted;
      if (!R) {
        if (InjectedFault()) {
          // The fault ends the execution; for backtracking purposes the
          // step still happened. Its effects are the fault counters
          // themselves, so a conservative all-points mask keeps the
          // dependence sound.
          if (Frontier) {
            Node.Record.Thread = Chosen;
            Node.Record.StepKind = McStepRecord::Kind::Local;
            Node.Record.FaultPointsTouched = ~0u;
            if (Opts.UseDpor)
              raceDetect(Tree, Interacting, Depth, Node.Record);
          }
          EndKind = End::FaultEnded;
        } else {
          Violation = McCounterexample{Tree.prefixSchedule(Depth + 1),
                                       R.error().Message,
                                       M->blockedStateDump()};
        }
        break;
      }
      // Only frontier steps are recorded. A restored node's alternative
      // keeps the empty record advance() left, which is what it later
      // contributes to DoneRecords; the explored/pruned counts pinned
      // in tests/mc_test.cpp depend on it.
      if (Frontier) {
        Node.Record = *R;
        if (Opts.UseDpor && interacting(*R))
          raceDetect(Tree, Interacting, Depth, *R);
      }
      if (interacting(Node.Record))
        Interacting.push_back(Depth);

      // Entry sleep set for the next turn: survivors are entries of
      // other threads whose (deterministic) next step commutes with what
      // just ran. Naive mode carries no sleep sets — that is the whole
      // difference the bench measures.
      if (Opts.UseDpor) {
        NextSleep.clear();
        for (const McStepRecord &Sl : Node.Sleep)
          if (Sl.Thread != Chosen && !dependent(Sl, Node.Record))
            NextSleep.push_back(Sl);
        for (const McStepRecord &Sl : Node.DoneRecords)
          if (Sl.Thread != Chosen && !dependent(Sl, Node.Record))
            NextSleep.push_back(Sl);
        std::swap(CurSleep, NextSleep);
      }

      Prev = Chosen;
      ++Depth;
      Rep.MaxDepthSeen = std::max<uint64_t>(Rep.MaxDepthSeen, Depth);
    }

    if (Violation) {
      Rep.Counterexample = std::move(Violation);
      return Rep;
    }

    switch (EndKind) {
    case End::Completed: {
      ++Rep.SchedulesExplored;
      uint64_t Fp = M->resultFingerprint();
      ++Rep.StatesFingerprinted;
      if (Opts.CheckDivergence) {
        if (!BaselineFp) {
          BaselineFp = Fp;
        } else if (*BaselineFp != Fp) {
          Rep.Counterexample = McCounterexample{
              Tree.prefixSchedule(Tree.Nodes.size()),
              "schedule-dependent result: canonical result fingerprint " +
                  hex(Fp) + " differs from the first explored schedule's " +
                  hex(*BaselineFp) + " (confluence violation)",
              ""};
          return Rep;
        }
      }
      if (Opts.Validate) {
        if (auto Problem = Opts.Validate(*M)) {
          Rep.Counterexample = McCounterexample{
              Tree.prefixSchedule(Tree.Nodes.size()),
              "end-state property failed: " + *Problem, ""};
          return Rep;
        }
      }
      break;
    }
    case End::FaultEnded:
      // An injected fault legitimately ends the run — the point of
      // composing mc with --faults is exploring every interleaving of
      // the fault pattern, not flagging the fault itself.
      ++Rep.SchedulesExplored;
      break;
    case End::Clipped:
      ++Rep.SchedulesExplored;
      Rep.Complete = false;
      Rep.Clipped = "depth budget (--mc-depth) clipped at least one "
                    "schedule";
      break;
    case End::Redundant:
      ++Rep.SchedulesPruned;
      break;
    case End::OutOfBound:
      ++Rep.SchedulesBoundClipped;
      break;
    }

    if (Opts.MaxSchedules && Rep.SchedulesExplored >= Opts.MaxSchedules) {
      if (Tree.advance(Opts.PreemptionBound, Rep.SchedulesPruned,
                       Rep.SchedulesBoundClipped)) {
        Rep.Complete = false;
        Rep.Clipped = "schedule budget (--mc-schedules) stopped "
                      "exploration early";
      }
      break;
    }
    if (!Tree.advance(Opts.PreemptionBound, Rep.SchedulesPruned,
                      Rep.SchedulesBoundClipped))
      break;

    // Backtrack: the deepest node now names its next alternative.
    // Resume from its checkpoint with the path state it saw.
    Depth = Tree.Nodes.size() - 1;
    assert(Tree.Nodes[Depth].Branching && "a lone choice has no sibling");
    M->restoreCheckpoint(Checkpoints[Depth]);
    Prev = Depth ? Tree.Nodes[Depth - 1].Chosen : UINT32_MAX;
    Preempts = Tree.Nodes[Depth].PreemptsBefore;
    while (!Interacting.empty() && Interacting.back() >= Depth)
      Interacting.pop_back();
  }
  return Rep;
}

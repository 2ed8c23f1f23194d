//===- mc/ScheduleTree.cpp ------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "mc/ScheduleTree.h"

#include <algorithm>

using namespace fearless;
using namespace fearless::mc;

void ScheduleTree::addBacktrack(ChoiceNode &N, uint32_t Thread) {
  if (std::find(N.Backtrack.begin(), N.Backtrack.end(), Thread) !=
      N.Backtrack.end())
    return;
  if (std::find(N.Done.begin(), N.Done.end(), Thread) != N.Done.end())
    return;
  N.Backtrack.push_back(Thread);
}

bool ScheduleTree::isEnabled(const ChoiceNode &N, uint32_t Thread) {
  return std::find(N.Enabled.begin(), N.Enabled.end(), Thread) !=
         N.Enabled.end();
}

bool ScheduleTree::isSleeping(const ChoiceNode &N, uint32_t Thread) {
  for (const McStepRecord &R : N.Sleep)
    if (R.Thread == Thread)
      return true;
  for (const McStepRecord &R : N.DoneRecords)
    if (R.Thread == Thread)
      return true;
  return false;
}

Schedule ScheduleTree::prefixSchedule(size_t UpTo) const {
  Schedule S;
  UpTo = std::min(UpTo, Nodes.size());
  for (size_t I = 0; I < UpTo; ++I)
    if (Nodes[I].Branching)
      S.Choices.push_back(Nodes[I].Chosen);
  return S;
}

bool ScheduleTree::advance(int64_t PreemptionBound, uint64_t &PrunedOut,
                           uint64_t &BoundClippedOut) {
  while (!Nodes.empty()) {
    ChoiceNode &N = Nodes.back();
    // Retire the branch just explored; its first action joins the sleep
    // entries shadowing later siblings.
    N.Done.push_back(N.Chosen);
    N.DoneRecords.push_back(N.Record);
    // The thread that ran the turn before this one: switching away from
    // it while it is still enabled here costs a preemption.
    uint32_t Prev = Nodes.size() >= 2 ? Nodes[Nodes.size() - 2].Chosen
                                      : UINT32_MAX;
    bool PrevEnabled = Prev != UINT32_MAX && isEnabled(N, Prev);
    // Next unexplored, awake backtrack candidate within the bound.
    uint32_t Next = UINT32_MAX;
    for (uint32_t Q : N.Backtrack) {
      if (std::find(N.Done.begin(), N.Done.end(), Q) != N.Done.end())
        continue;
      bool Asleep = false;
      for (const McStepRecord &R : N.Sleep)
        if (R.Thread == Q) {
          Asleep = true;
          break;
        }
      if (Asleep) {
        // Covered by an earlier branch of an ancestor: retire it
        // unexplored. (DoneRecords gains no entry — the thread never
        // stepped here — but Done marks it handled.)
        N.Done.push_back(Q);
        ++PrunedOut;
        continue;
      }
      int64_t Cost = PrevEnabled && Q != Prev ? 1 : 0;
      if (PreemptionBound >= 0 &&
          N.PreemptsBefore + Cost > PreemptionBound) {
        // Outside the bounded space: not redundant, just not explored.
        N.Done.push_back(Q);
        ++BoundClippedOut;
        continue;
      }
      Next = Q;
      break;
    }
    if (Next != UINT32_MAX) {
      N.Chosen = Next;
      N.Record = McStepRecord{};
      return true;
    }
    Nodes.pop_back();
  }
  return false;
}

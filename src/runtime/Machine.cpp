//===- runtime/Machine.cpp ------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "runtime/Machine.h"

#include "vm/Bytecode.h"
#include "vm/Vm.h"

#include <cassert>
#include <chrono>
#include <functional>
#include <unordered_map>

using namespace fearless;

Machine::Machine(const CheckedProgram &Checked, MachineOptions Opts)
    : Checked(Checked), Opts(Opts), TheHeap(Checked.Structs) {}

ThreadId Machine::spawn(Symbol FnName, std::vector<Value> Args) {
  ThreadId T = createThread();
  startThread(T, FnName, std::move(Args));
  return T;
}

ThreadId Machine::createThread() {
  ThreadState T;
  T.Id = static_cast<ThreadId>(Threads.size());
  // Not started yet: treat as finished so run() ignores it if never
  // started.
  T.Status = ThreadStatus::Finished;
  Threads.push_back(std::move(T));
  return Threads.back().Id;
}

void Machine::startThread(ThreadId Id, Symbol FnName,
                          std::vector<Value> Args) {
  assert(Id < Threads.size() && "bad thread id");
  const FnDecl *Fn = Checked.Prog->findFunction(FnName);
  assert(Fn && "spawning an unknown function");
  assert(Args.size() == Fn->Params.size() && "spawn arity mismatch");
  ThreadState &T = Threads[Id];
  for (size_t I = 0; I < Args.size(); ++I)
    T.Env.emplace_back(Fn->Params[I].Name, Args[I]);
  T.ControlExpr = Fn->Body.get();
  T.HasValue = false;
  T.Status = ThreadStatus::Runnable;
}

Loc Machine::hostAlloc(ThreadId T, Symbol StructName) {
  assert(T < Threads.size() && "bad thread id");
  Loc L = TheHeap.allocate(StructName);
  assert(L.isValid() && "hostAlloc: unknown struct or heap exhausted");
  if (!L.isValid())
    return L;
  Threads[T].Reservation.insert(L.Index);
  ++Stats.Allocations;
  return L;
}

void Machine::hostSetField(Loc L, Symbol Field, Value V) {
  const Object &O = TheHeap.get(L);
  const FieldInfo *Info = O.Struct->findField(Field);
  assert(Info && "hostSetField: unknown field");
  TheHeap.setField(L, Info->Index, V);
}

Value Machine::hostGetField(Loc L, Symbol Field) const {
  const Object &O = TheHeap.get(L);
  const FieldInfo *Info = O.Struct->findField(Field);
  assert(Info && "hostGetField: unknown field");
  return TheHeap.getField(L, Info->Index);
}

bool Machine::valueMatchesType(const Value &V, const Type &Ty) const {
  switch (V.kind()) {
  case Value::Kind::Unit:
    return Ty.BaseKind == Type::Base::Unit;
  case Value::Kind::Int:
    return Ty.BaseKind == Type::Base::Int;
  case Value::Kind::Bool:
    return Ty.BaseKind == Type::Base::Bool;
  case Value::Kind::None:
    return Ty.isMaybe();
  case Value::Kind::Location:
    return Ty.isRegionful() &&
           TheHeap.get(V.asLoc()).Struct->Name == Ty.StructName;
  }
  return false;
}

bool Machine::tryCommunicate(std::string &Error) {
  for (ThreadState &Sender : Threads) {
    if (Sender.Status != ThreadStatus::BlockedSend)
      continue;
    for (ThreadState &Receiver : Threads) {
      if (Receiver.Status != ThreadStatus::BlockedRecv)
        continue;
      // send-τ pairs with recv-τ: exact static type match, with a
      // defensive runtime-compatibility check.
      if (!(Sender.CommType == Receiver.CommType))
        continue;
      if (Sender.PendingSend.isLoc() &&
          !valueMatchesType(Sender.PendingSend, Receiver.CommType)) {
        Error = "send/recv type confusion at runtime (checker bug)";
        return false;
      }

      // EC3: transfer the live-set of the chosen root from the sender's
      // reservation to the receiver's.
      Value Sent = Sender.PendingSend;
      if (Sent.isLoc()) {
        TheHeap.liveSetInto(Sent.asLoc(), LiveBuf, LiveSeen);
        if (Opts.CheckReservations) {
          for (Loc L : LiveBuf)
            if (!Sender.Reservation.count(L.Index)) {
              Error = "send: live-set of " + toString(Sent) +
                      " is not contained in the sender's reservation "
                      "(reservation violation in thread " +
                      std::to_string(Sender.Id) + ")";
              return false;
            }
        }
        // Incremental reservation handoff: the dense tables stay exact
        // without any rebuild — membership flips per transferred object.
        for (Loc L : LiveBuf) {
          Sender.Reservation.erase(L.Index);
          Receiver.Reservation.insert(L.Index);
        }
      }
      ++Stats.Sends;
      ++Stats.Recvs; // pairing delivers both halves at once

      // Tracing: close the block→wake wait span on both sides and mark
      // the transfer itself (live-set size = objects handed over).
      if (Sender.Trace) {
        Sender.Trace->record("send.wait", "channel",
                             'X', Sender.TraceBlockStartNs,
                             Sender.Trace->now() - Sender.TraceBlockStartNs,
                             "live_set",
                             Sent.isLoc() ? LiveBuf.size() : 0);
        Sender.Trace->instant("send.transfer", "channel", "live_set",
                              Sent.isLoc() ? LiveBuf.size() : 0);
      }
      if (Receiver.Trace)
        Receiver.Trace->record(
            "recv.wait", "channel", 'X', Receiver.TraceBlockStartNs,
            Receiver.Trace->now() - Receiver.TraceBlockStartNs);

      // Sender resumes with unit; receiver resumes with the root.
      Sender.ControlValue = Value::unitVal();
      Sender.HasValue = true;
      Sender.PendingSend = Value();
      Sender.Status = ThreadStatus::Runnable;
      Receiver.ControlValue = Sent;
      Receiver.HasValue = true;
      Receiver.Status = ThreadStatus::Runnable;
      return true;
    }
  }
  return false;
}

RuntimeMetrics Machine::metrics() const {
  RuntimeMetrics M;
  M.mergeThread(Stats);
  M.FaultsInjected = Opts.Faults ? Opts.Faults->totalFired() : 0;
  M.ThreadsSpawned = Threads.size();
  for (const ThreadState &T : Threads) {
    if (T.Status == ThreadStatus::Finished)
      ++M.ThreadsFinished;
    else if (T.Status == ThreadStatus::Failed)
      ++M.ThreadsErrored;
  }
  M.HeapObjects = TheHeap.size();
  if (Opts.VmCode)
    M.ChecksErased = Opts.VmCode->ChecksErased;
  M.WallMicros = WallMicros;
  return M;
}

bool Machine::communicate(std::string &Error) {
  // EC3 pairing walks the heap (live-set transfer), so it can trap on an
  // invalid location just like a step; catch at the same frontier and
  // surface the typed fault instead of dying.
  try {
    return tryCommunicate(Error);
  } catch (const RuntimeFaultError &E) {
    LastFault = E.Fault;
    Error = E.Fault.render();
    return false;
  }
}

ExpectedVoid Machine::beginStepping() {
  LastFault.reset();
  Stepping.emplace();
  SteppingState &S = *Stepping;

  // Tracing: one buffer per language thread (tid = thread id + 1; the
  // machine itself is tid 0). The machine is single-OS-threaded, so the
  // single-writer rule holds trivially for every buffer.
  if (Opts.Trace) {
    S.TraceCtl = &Opts.Trace->registerThread(0, "machine");
    for (ThreadState &T : Threads)
      if (!T.Trace)
        T.Trace = &Opts.Trace->registerThread(T.Id + 1, "lang-thread");
  }
  S.TraceRunStart = S.TraceCtl ? S.TraceCtl->now() : 0;

  S.Services.TheHeap = &TheHeap;
  S.Services.Prog = Checked.Prog;
  S.Services.Stats = &Stats;
  S.Services.SendTypes = &Checked.SendTypes;
  S.Services.CheckReservations = Opts.CheckReservations;
  S.Services.UseNaiveDisconnect = Opts.UseNaiveDisconnect;
  S.Services.StaticVerdicts = Opts.StaticVerdicts;
  S.Services.ElideDisconnect = Opts.ElideDisconnect;
  S.Services.CrossCheckElision = Opts.CrossCheckElision;
  S.Services.Faults = Opts.Faults;
  S.Services.VmCode = Opts.VmCode;

  // Fault points the interpreter cannot see: thread.start fires once per
  // started thread (before its first step), sched.step per scheduler
  // pulse in stepChosen. The machine has no supervision — an injected
  // fault here fails the run with a typed diagnostic (exit-code 5 on the
  // CLI).
  if (Opts.Faults) {
    for (ThreadState &T : Threads) {
      if (T.Status == ThreadStatus::Finished)
        continue;
      if (Opts.Faults->shouldFire(FaultPoint::ThreadStart)) {
        RuntimeFault F;
        F.Kind = RuntimeFaultKind::Injected;
        F.Detail = static_cast<uint32_t>(FaultPoint::ThreadStart);
        F.Thread = T.Id;
        LastFault = F;
        return fail(F.render());
      }
    }
  }
  return {};
}

Expected<MachineProgress> Machine::checkProgress() {
  assert(Stepping && "checkProgress outside a stepping session");
  SteppingState &S = *Stepping;
  while (true) {
    S.Runnable.clear();
    bool AllFinished = true;
    for (size_t I = 0; I < Threads.size(); ++I) {
      if (Threads[I].Status == ThreadStatus::Runnable)
        S.Runnable.push_back(I);
      if (Threads[I].Status != ThreadStatus::Finished)
        AllFinished = false;
    }
    if (AllFinished)
      return MachineProgress::Done;
    if (!S.Runnable.empty())
      return MachineProgress::Running;
    // No runnable thread: try pairing communication (defensive — pairing
    // is eager after every blocking step); otherwise deadlock.
    std::string Error;
    if (communicate(Error))
      continue;
    if (!Error.empty())
      return fail(Error);
    return MachineProgress::Deadlock;
  }
}

const std::vector<size_t> &Machine::runnableThreads() const {
  assert(Stepping && "runnableThreads outside a stepping session");
  return Stepping->Runnable;
}

Expected<McStepRecord> Machine::stepChosen(size_t Pick) {
  assert(Stepping && "stepChosen outside a stepping session");
  SteppingState &S = *Stepping;
  assert(Pick < Threads.size() && "bad thread index");
  ThreadState &T = Threads[Pick];
  assert(T.Status == ThreadStatus::Runnable &&
         "stepping a non-runnable thread");

  McStepRecord Rec;
  Rec.Thread = T.Id;
  uint64_t FaultOcc[NumFaultPoints] = {};
  if (Opts.Faults)
    for (size_t I = 0; I < NumFaultPoints; ++I)
      FaultOcc[I] = Opts.Faults->occurrences(static_cast<FaultPoint>(I));
  auto StampFaults = [&] {
    if (!Opts.Faults)
      return;
    for (size_t I = 0; I < NumFaultPoints; ++I)
      if (Opts.Faults->occurrences(static_cast<FaultPoint>(I)) !=
          FaultOcc[I])
        Rec.FaultPointsTouched |= 1u << I;
  };

  if (Opts.Faults && Opts.Faults->shouldFire(FaultPoint::SchedStep)) {
    RuntimeFault F;
    F.Kind = RuntimeFaultKind::Injected;
    F.Detail = static_cast<uint32_t>(FaultPoint::SchedStep);
    F.Thread = T.Id;
    LastFault = F;
    return fail(F.render());
  }
  StepOutcome Out = stepThread(T, S.Services);
  ++S.Steps;
  if (Opts.StepValidator) {
    if (auto Problem = Opts.StepValidator(*this))
      return fail("step validator failed after step " +
                  std::to_string(S.Steps) + ": " + *Problem);
  }
  if (S.Steps > Opts.MaxSteps)
    return fail("machine exceeded the step limit");
  switch (Out) {
  case StepOutcome::Progress:
    Rec.StepKind = McStepRecord::Kind::Local;
    break;
  case StepOutcome::Finished:
    Rec.StepKind = McStepRecord::Kind::Finish;
    break;
  case StepOutcome::BlockedSend:
  case StepOutcome::BlockedRecv: {
    Rec.StepKind = Out == StepOutcome::BlockedSend
                       ? McStepRecord::Kind::BlockSend
                       : McStepRecord::Kind::BlockRecv;
    Rec.HasCommType = true;
    Rec.CommType = T.CommType;
    // Eager pairing. Any pre-existing send/recv pair would already have
    // been paired, so a successful pairing here involves T; the partner
    // is the other thread that went blocked → runnable.
    S.StatusScratch.clear();
    for (const ThreadState &X : Threads)
      S.StatusScratch.push_back(X.Status);
    std::string Error;
    if (communicate(Error)) {
      Rec.StepKind = McStepRecord::Kind::CommPair;
      for (size_t I = 0; I < Threads.size(); ++I)
        if (I != Pick && S.StatusScratch[I] != Threads[I].Status &&
            Threads[I].Status == ThreadStatus::Runnable)
          Rec.Partner = Threads[I].Id;
    }
    if (!Error.empty()) {
      StampFaults();
      return fail(Error);
    }
    break;
  }
  case StepOutcome::Stuck:
    if (T.Fault)
      LastFault = T.Fault;
    StampFaults();
    return fail("thread " + std::to_string(T.Id) + " is stuck: " +
                T.Error);
  }
  StampFaults();
  return Rec;
}

Expected<MachineSummary> Machine::finishStepping() {
  assert(Stepping && "finishStepping outside a stepping session");
  SteppingState &S = *Stepping;
  MachineSummary Summary;
  Summary.Steps = S.Steps;
  for (const ThreadState &T : Threads)
    Summary.ThreadResults.push_back(T.Result);
  Stats.Steps = S.Steps;
  if (S.TraceCtl)
    S.TraceCtl->record("machine.run", "machine", 'X', S.TraceRunStart,
                       S.TraceCtl->now() - S.TraceRunStart, "steps",
                       S.Steps);
  Stepping.reset();
  return Summary;
}

namespace {

/// Deep-copies \p Src into \p Dst: the VM state is cloned, not shared,
/// and Dst's buffers are refilled in place.
void copyThread(ThreadState &Dst, const ThreadState &Src) {
  std::shared_ptr<vm::VmState> Vm = std::move(Dst.Vm);
  Dst = Src; // shares Src.Vm until the clone below replaces it
  if (!Src.Vm)
    Vm.reset();
  else if (Vm)
    *Vm = *Src.Vm;
  else
    Vm = std::make_shared<vm::VmState>(*Src.Vm);
  Dst.Vm = std::move(Vm);
}

} // namespace

void Machine::saveCheckpoint(Checkpoint &Out) const {
  assert(Stepping && "saveCheckpoint outside a stepping session");
  TheHeap.save(Out.Objects);
  Out.Threads.resize(Threads.size());
  for (size_t I = 0; I < Threads.size(); ++I)
    copyThread(Out.Threads[I], Threads[I]);
  Out.Stats = Stats;
  Out.LastFault = LastFault;
  Out.Steps = Stepping->Steps;
  if (Opts.Faults)
    Opts.Faults->saveCounters(Out.Faults);
}

void Machine::restoreCheckpoint(const Checkpoint &In) {
  assert(Stepping && "restoreCheckpoint outside a stepping session");
  TheHeap.restore(In.Objects);
  Threads.resize(In.Threads.size());
  for (size_t I = 0; I < Threads.size(); ++I)
    copyThread(Threads[I], In.Threads[I]);
  Stats = In.Stats;
  LastFault = In.LastFault;
  Stepping->Steps = In.Steps;
  if (Opts.Faults)
    Opts.Faults->restoreCounters(In.Faults);
}

std::string Machine::deadlockMessage() const {
  return "deadlock: all unfinished threads are blocked on send/recv "
         "with no matching partner\n" +
         blockedStateDump();
}

std::string Machine::blockedStateDump() const {
  const Interner &Names = Checked.Prog->Names;
  std::string Out;
  for (const ThreadState &T : Threads) {
    if (T.Status == ThreadStatus::Finished)
      continue;
    Out += "  thread " + std::to_string(T.Id) + ": ";
    switch (T.Status) {
    case ThreadStatus::Runnable:
      Out += "runnable";
      break;
    case ThreadStatus::BlockedSend:
      Out += "blocked in send(" + toString(T.CommType, Names) +
             ", payload " + toString(T.PendingSend);
      if (T.PendingSend.isLoc())
        Out += ", live-set " +
               std::to_string(TheHeap.liveSet(T.PendingSend.asLoc())
                                  .size()) +
               " objects";
      Out += ")";
      break;
    case ThreadStatus::BlockedRecv:
      Out += "blocked in recv<" + toString(T.CommType, Names) + ">";
      break;
    case ThreadStatus::Failed:
      Out += "failed: " + T.Error;
      break;
    case ThreadStatus::Finished:
      break;
    }
    Out += " (reservation: " + std::to_string(T.Reservation.size()) +
           " objects)\n";
  }
  if (!Out.empty())
    Out.pop_back();
  return Out;
}

uint64_t Machine::resultFingerprint() const {
  uint64_t H = 1469598103934665603ull; // FNV-1a
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  };
  // Canonical location renaming: locations are numbered in DFS visit
  // order from the thread results, so allocation order — which varies
  // across schedules — cannot leak into the fingerprint.
  std::unordered_map<uint32_t, uint32_t> Canon;
  std::function<void(const Value &)> Visit = [&](const Value &V) {
    switch (V.kind()) {
    case Value::Kind::Unit:
      Mix(1);
      return;
    case Value::Kind::None:
      Mix(2);
      return;
    case Value::Kind::Bool:
      Mix(3);
      Mix(V.asBool() ? 1 : 0);
      return;
    case Value::Kind::Int:
      Mix(4);
      Mix(static_cast<uint64_t>(V.asInt()));
      return;
    case Value::Kind::Location: {
      Loc L = V.asLoc();
      auto [It, Fresh] = Canon.emplace(
          L.Index, static_cast<uint32_t>(Canon.size()));
      Mix(5);
      Mix(It->second);
      if (!Fresh)
        return; // back-edge (cycles): the canonical id suffices
      const Object &O = TheHeap.get(L);
      Mix(O.Struct->Name.Id);
      Mix(O.Fields.size());
      for (const Value &F : O.Fields)
        Visit(F);
      return;
    }
    }
  };
  for (const ThreadState &T : Threads) {
    Mix(static_cast<uint64_t>(T.Status));
    Visit(T.Result);
  }
  return H;
}

Expected<MachineSummary> Machine::run(uint64_t Seed) {
  auto Started = std::chrono::steady_clock::now();
  Expected<MachineSummary> Summary = runTurns(Seed);
  WallMicros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Started)
          .count());
  return Summary;
}

Expected<MachineSummary> Machine::runTurns(uint64_t Seed,
                                           std::vector<uint32_t> *Choices) {
  if (ExpectedVoid B = beginStepping(); !B)
    return B.takeFailure();

  uint64_t Rng = Seed ? Seed : 0;
  auto NextRandom = [&Rng]() {
    Rng ^= Rng << 13;
    Rng ^= Rng >> 7;
    Rng ^= Rng << 17;
    return Rng;
  };
  size_t RoundRobin = 0;

  while (true) {
    Expected<MachineProgress> P = checkProgress();
    if (!P)
      return P.takeFailure();
    if (*P == MachineProgress::Done)
      break;
    if (*P == MachineProgress::Deadlock)
      return fail(deadlockMessage());
    const std::vector<size_t> &Runnable = runnableThreads();
    // The xorshift advances (and the round-robin counter increments) on
    // every turn, branching or not.
    size_t Pick = Seed ? Runnable[NextRandom() % Runnable.size()]
                       : Runnable[RoundRobin++ % Runnable.size()];
    if (Choices && Runnable.size() >= 2)
      Choices->push_back(static_cast<uint32_t>(Pick));
    if (Expected<McStepRecord> R = stepChosen(Pick); !R)
      return R.takeFailure();
  }
  return finishStepping();
}

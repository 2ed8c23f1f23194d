//===- verifier/Verifier.cpp ----------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "verifier/Verifier.h"

#include "regions/Canonical.h"

#include <cassert>
#include <set>

using namespace fearless;

namespace {

/// Walks a derivation re-validating each step.
class Verifier {
public:
  Verifier(const CheckedProgram &Program, const CheckedFunction &Fn)
      : Program(Program), Fn(Fn), Names(Program.Prog->Names) {}

  Expected<VerifyStats> run() {
    if (!Fn.Deriv)
      return fail("function has no derivation to verify");
    D = &*Fn.Deriv;
    WellFormed.assign(D->snapshots().size(), false);
    if (auto Err = verifyStep(D->root()); !Err)
      return Err.takeFailure();
    // The root's final context must conform to the declared output.
    Contexts Final = D->after(D->root());
    Contexts Output = Fn.Sig.Output;
    RegionId FinalResult = D->root().ResultRegion;
    dropUnreachableRegions(Final, FinalResult);
    dropUnreachableRegions(Output, Fn.Sig.ResultRegion);
    if (!equivalentUpToRenaming(Final, FinalResult, Output,
                                Fn.Sig.ResultRegion))
      return fail("derivation's final context does not match the declared "
                  "signature output:\n  have: " +
                  toString(Final, Names) + "\n  want: " +
                  toString(Output, Names));
    return Stats;
  }

private:
  const Contexts &before(const DerivStep &Step) const {
    return D->before(Step);
  }
  const Contexts &after(const DerivStep &Step) const {
    return D->after(Step);
  }
  /// Before == After; steps that share one snapshot are equal at once.
  bool unchanged(const DerivStep &Step) const {
    return Step.Before == Step.After || before(Step) == after(Step);
  }

  /// Checks §4.3 well-formedness of snapshot \p Id the first time a step
  /// refers to it; later steps sharing it reuse the verdict.
  ExpectedVoid checkSnapshot(SnapshotId Id, const char *Where,
                             const DerivStep &Step) {
    if (WellFormed[Id])
      return success();
    if (auto Problem = checkWellFormed(D->snapshot(Id), Names))
      return fail(std::string("ill-formed context ") + Where + " " +
                  std::string(ruleName(Step.Rule)) + ": " + *Problem);
    WellFormed[Id] = true;
    return success();
  }

  ExpectedVoid verifyStep(const DerivStep &Step) {
    ++Stats.StepsChecked;
    if (auto Err = checkSnapshot(Step.Before, "before", Step); !Err)
      return Err;
    if (auto Err = checkSnapshot(Step.After, "after", Step); !Err)
      return Err;

    switch (Step.Rule) {
    case RuleId::V1Focus:
      return verifyFocus(Step);
    case RuleId::V2Unfocus:
      return verifyUnfocus(Step);
    case RuleId::V3Explore:
      return verifyExplore(Step);
    case RuleId::V4Retract:
      return verifyRetract(Step);
    case RuleId::V5Attach:
      return verifyAttach(Step);
    case RuleId::FDropRegion:
      return verifyDropRegion(Step);
    case RuleId::FPinRegion:
      return verifyPin(Step);
    default:
      break;
    }

    // Expression steps: verify recursively, then rule-local facts.
    for (StepId C = Step.FirstChild; C != NoStep; C = D->step(C).NextSibling)
      if (auto Err = verifyStep(D->step(C)); !Err)
        return Err;
    return verifyExprFacts(Step);
  }

  //===--------------------------------------------------------------------===
  // Virtual transformations: recompute the instance and compare exactly.
  //===--------------------------------------------------------------------===

  /// Finds the unique (region, var) whose tracking differs. Returns false
  /// if the diff is not a single-variable tracking change.
  static bool
  diffTrackedVars(const HeapCtx &Before, const HeapCtx &After,
                  RegionId &Region, Symbol &Var, bool &AddedInAfter) {
    // Collect (region, var) keys on both sides.
    std::set<std::pair<RegionId, Symbol>> BeforeKeys, AfterKeys;
    for (const auto &[R, Track] : Before.entries())
      for (const auto &[V, VT] : Track.Vars) {
        (void)VT;
        BeforeKeys.insert({R, V});
      }
    for (const auto &[R, Track] : After.entries())
      for (const auto &[V, VT] : Track.Vars) {
        (void)VT;
        AfterKeys.insert({R, V});
      }
    std::vector<std::pair<RegionId, Symbol>> OnlyBefore, OnlyAfter;
    for (const auto &Key : BeforeKeys)
      if (!AfterKeys.count(Key))
        OnlyBefore.push_back(Key);
    for (const auto &Key : AfterKeys)
      if (!BeforeKeys.count(Key))
        OnlyAfter.push_back(Key);
    if (OnlyBefore.size() + OnlyAfter.size() != 1)
      return false;
    AddedInAfter = !OnlyAfter.empty();
    std::tie(Region, Var) =
        AddedInAfter ? OnlyAfter.front() : OnlyBefore.front();
    return true;
  }

  ExpectedVoid verifyVStepEnd() {
    ++Stats.VirtualStepsChecked;
    return success();
  }

  ExpectedVoid verifyFocus(const DerivStep &Step) {
    RegionId Region;
    Symbol Var;
    bool Added = false;
    if (!diffTrackedVars(before(Step).Heap, after(Step).Heap, Region, Var,
                         Added) ||
        !Added)
      return fail("V1-Focus: diff is not a single added tracked variable");
    const RegionTrack *BeforeTrack = before(Step).Heap.lookup(Region);
    if (!BeforeTrack || !BeforeTrack->empty() || BeforeTrack->Pinned)
      return fail("V1-Focus: region was not empty and unpinned");
    const VarBinding *Binding = before(Step).Vars.lookup(Var);
    if (!Binding || Binding->Region != Region ||
        !Binding->VarType.isStruct())
      return fail("V1-Focus: variable not bound to the focused region "
                  "with a struct type");
    // Recompute After.
    Contexts Expect = before(Step);
    Expect.Heap.lookup(Region)->Vars.emplace(Var, VarTrack{});
    if (!(Expect == after(Step)))
      return fail("V1-Focus: After context is not the exact instance");
    return verifyVStepEnd();
  }

  ExpectedVoid verifyUnfocus(const DerivStep &Step) {
    RegionId Region;
    Symbol Var;
    bool Added = false;
    if (!diffTrackedVars(before(Step).Heap, after(Step).Heap, Region, Var,
                         Added) ||
        Added)
      return fail("V2-Unfocus: diff is not a single removed tracked "
                  "variable");
    const VarTrack *Track = before(Step).Heap.trackedVar(Region, Var);
    if (!Track || !Track->Fields.empty())
      return fail("V2-Unfocus: variable still had tracked fields");
    Contexts Expect = before(Step);
    Expect.Heap.lookup(Region)->Vars.erase(Var);
    if (!(Expect == after(Step)))
      return fail("V2-Unfocus: After context is not the exact instance");
    return verifyVStepEnd();
  }

  /// Finds the unique (region, var, field) tracked-field diff.
  static bool diffTrackedFields(const HeapCtx &Before, const HeapCtx &After,
                                RegionId &Region, Symbol &Var,
                                Symbol &Field, RegionId &Target,
                                bool &AddedInAfter) {
    using Key = std::tuple<RegionId, Symbol, Symbol>;
    std::map<Key, RegionId> BeforeFields, AfterFields;
    auto Collect = [](const HeapCtx &H, std::map<Key, RegionId> &Out) {
      for (const auto &[R, Track] : H.entries())
        for (const auto &[V, VT] : Track.Vars)
          for (const auto &[F, T] : VT.Fields)
            Out[{R, V, F}] = T;
    };
    Collect(Before, BeforeFields);
    Collect(After, AfterFields);
    std::vector<std::pair<Key, RegionId>> OnlyBefore, OnlyAfter;
    for (const auto &[K, T] : BeforeFields)
      if (!AfterFields.count(K))
        OnlyBefore.push_back({K, T});
    for (const auto &[K, T] : AfterFields)
      if (!BeforeFields.count(K))
        OnlyAfter.push_back({K, T});
    if (OnlyBefore.size() + OnlyAfter.size() != 1)
      return false;
    AddedInAfter = !OnlyAfter.empty();
    const auto &[K, T] =
        AddedInAfter ? OnlyAfter.front() : OnlyBefore.front();
    std::tie(Region, Var, Field) = K;
    Target = T;
    return true;
  }

  ExpectedVoid verifyExplore(const DerivStep &Step) {
    RegionId Region, Target;
    Symbol Var, Field;
    bool Added = false;
    if (!diffTrackedFields(before(Step).Heap, after(Step).Heap, Region, Var,
                           Field, Target, Added) ||
        !Added)
      return fail("V3-Explore: diff is not a single added tracked field");
    if (before(Step).Heap.hasRegion(Target))
      return fail("V3-Explore: target region is not fresh");
    const VarTrack *Track = before(Step).Heap.trackedVar(Region, Var);
    if (!Track || Track->Pinned)
      return fail("V3-Explore: variable untracked or pinned");
    Contexts Expect = before(Step);
    Expect.Heap.trackedVar(Region, Var)->Fields[Field] = Target;
    Expect.Heap.addRegion(Target);
    if (!(Expect == after(Step)))
      return fail("V3-Explore: After context is not the exact instance");
    return verifyVStepEnd();
  }

  ExpectedVoid verifyRetract(const DerivStep &Step) {
    RegionId Region, Target;
    Symbol Var, Field;
    bool Added = false;
    if (!diffTrackedFields(before(Step).Heap, after(Step).Heap, Region, Var,
                           Field, Target, Added) ||
        Added)
      return fail("V4-Retract: diff is not a single removed tracked "
                  "field");
    const RegionTrack *TargetTrack = before(Step).Heap.lookup(Target);
    if (!TargetTrack || !TargetTrack->empty() || TargetTrack->Pinned)
      return fail("V4-Retract: target region not present, empty, and "
                  "unpinned");
    Contexts Expect = before(Step);
    Expect.Heap.trackedVar(Region, Var)->Fields.erase(Field);
    Expect.Heap.removeRegion(Target);
    if (!(Expect == after(Step)))
      return fail("V4-Retract: After context is not the exact instance");
    return verifyVStepEnd();
  }

  ExpectedVoid verifyAttach(const DerivStep &Step) {
    // The removed region is the one present before and absent after.
    RegionId From;
    for (const auto &[R, Track] : before(Step).Heap.entries()) {
      (void)Track;
      if (!after(Step).Heap.hasRegion(R)) {
        if (From.isValid())
          return fail("V5-Attach: more than one region disappeared");
        From = R;
      }
    }
    if (!From.isValid())
      return fail("V5-Attach: no region disappeared");
    // Find To: the region whose tracking gained From's variables, or any
    // region that From's references now point to. Recompute for every
    // candidate To and compare.
    for (const auto &[To, Track] : after(Step).Heap.entries()) {
      (void)Track;
      if (!before(Step).Heap.hasRegion(To))
        continue;
      if (!before(Step).Heap.canAttach(From, To))
        continue;
      Contexts Expect = before(Step);
      Expect.Heap.attach(From, To);
      Expect.Vars.renameRegion(From, To);
      if (Expect == after(Step))
        return verifyVStepEnd();
    }
    return fail("V5-Attach: no legal attach target reproduces the After "
                "context");
  }

  ExpectedVoid verifyDropRegion(const DerivStep &Step) {
    RegionId Dropped;
    for (const auto &[R, Track] : before(Step).Heap.entries()) {
      (void)Track;
      if (!after(Step).Heap.hasRegion(R)) {
        if (Dropped.isValid())
          return fail("F-Drop-Region: more than one region disappeared");
        Dropped = R;
      }
    }
    if (!Dropped.isValid())
      return fail("F-Drop-Region: no region disappeared");
    if (before(Step).Heap.lookup(Dropped)->Pinned)
      return fail("F-Drop-Region: dropped region was pinned");
    Contexts Expect = before(Step);
    Expect.Heap.removeRegion(Dropped);
    if (!(Expect == after(Step)))
      return fail("F-Drop-Region: After context is not the exact "
                  "instance");
    return verifyVStepEnd();
  }

  ExpectedVoid verifyPin(const DerivStep &Step) {
    // A pin sets exactly one pin flag (region or tracked variable).
    size_t Diffs = 0;
    Contexts Expect = before(Step);
    for (auto &[R, Track] : before(Step).Heap.entries()) {
      const RegionTrack *AfterTrack = after(Step).Heap.lookup(R);
      if (!AfterTrack)
        return fail("F-Pin-Region: region disappeared");
      if (Track.Pinned != AfterTrack->Pinned) {
        if (Track.Pinned)
          return fail("F-Pin-Region: pin flag removed");
        Expect.Heap.lookup(R)->Pinned = true;
        ++Diffs;
      }
      for (auto &[V, VT] : Track.Vars) {
        const VarTrack *AfterVT = after(Step).Heap.trackedVar(R, V);
        if (!AfterVT)
          return fail("F-Pin-Region: tracked variable disappeared");
        if (VT.Pinned != AfterVT->Pinned) {
          if (VT.Pinned)
            return fail("F-Pin-Region: variable pin flag removed");
          Expect.Heap.trackedVar(R, V)->Pinned = true;
          ++Diffs;
        }
      }
    }
    if (Diffs != 1 || !(Expect == after(Step)))
      return fail("F-Pin-Region: After context is not a single added pin");
    return verifyVStepEnd();
  }

  //===--------------------------------------------------------------------===
  // Expression-rule local facts
  //===--------------------------------------------------------------------===

  ExpectedVoid verifyExprFacts(const DerivStep &Step) {
    switch (Step.Rule) {
    case RuleId::T2VariableRef: {
      const auto *Var = dyn_cast<VarRefExpr>(Step.E);
      if (!Var)
        return fail("T2: step is not a variable reference");
      const VarBinding *Binding = before(Step).Vars.lookup(Var->Name);
      if (!Binding)
        return fail("T2: variable not bound in Γ");
      if (Binding->VarType.isRegionful() &&
          !before(Step).Heap.hasRegion(Binding->Region))
        return fail("T2: variable's region capability missing from H");
      if (!unchanged(Step))
        return fail("T2: variable reference must not change the context");
      return success();
    }
    case RuleId::T5IsolatedFieldReference: {
      const auto *Ref = dyn_cast<FieldRefExpr>(Step.E);
      if (!Ref || !isa<VarRefExpr>(Ref->Base.get()))
        return fail("T5: step is not an iso field read on a variable");
      Symbol Var = cast<VarRefExpr>(*Ref->Base).Name;
      auto Region = after(Step).Heap.trackingRegionOf(Var);
      if (!Region)
        return fail("T5: base variable is not tracked afterwards");
      const VarTrack *Track = after(Step).Heap.trackedVar(*Region, Var);
      auto It = Track->Fields.find(Ref->Field);
      if (It == Track->Fields.end())
        return fail("T5: field is not tracked afterwards");
      if (Step.ResultType.isRegionful() &&
          It->second != Step.ResultRegion)
        return fail("T5: result region is not the tracked target");
      if (!after(Step).Heap.hasRegion(It->second))
        return fail("T5: tracked target region missing from H");
      return success();
    }
    case RuleId::T7IsolatedFieldAssignment: {
      const auto *Assign = dyn_cast<AssignFieldExpr>(Step.E);
      if (!Assign || !isa<VarRefExpr>(Assign->Base.get()))
        return fail("T7: step is not an iso field write on a variable");
      Symbol Var = cast<VarRefExpr>(*Assign->Base).Name;
      auto Region = after(Step).Heap.trackingRegionOf(Var);
      if (!Region)
        return fail("T7: base variable is not tracked afterwards");
      const VarTrack *Track = after(Step).Heap.trackedVar(*Region, Var);
      if (!Track->Fields.count(Assign->Field))
        return fail("T7: assigned field is not tracked afterwards");
      return success();
    }
    case RuleId::T16Send: {
      // The operand child's result region must have left H.
      const DerivStep *Operand = nullptr;
      D->forEachChild(Step, [&](const DerivStep &Child) {
        if (Child.E)
          Operand = &Child;
      });
      if (!Operand)
        return fail("T16: missing operand derivation");
      if (Operand->ResultType.isRegionful() &&
          after(Step).Heap.hasRegion(Operand->ResultRegion))
        return fail("T16: sent region still present in H");
      return success();
    }
    case RuleId::T17Receive:
    case RuleId::T10NewLoc:
      if (Step.ResultType.isRegionful()) {
        if (!after(Step).Heap.hasRegion(Step.ResultRegion))
          return fail(std::string(ruleName(Step.Rule)) +
                      ": result region missing from H");
        if (before(Step).Heap.hasRegion(Step.ResultRegion))
          return fail(std::string(ruleName(Step.Rule)) +
                      ": result region is not fresh");
      }
      return success();
    case RuleId::T9FunctionApplication: {
      const auto *Call = dyn_cast<CallExpr>(Step.E);
      if (!Call)
        return fail("T9: step is not a call");
      auto It = Program.Signatures.find(Call->Callee);
      if (It == Program.Signatures.end())
        return fail("T9: unknown callee");
      if (!(Step.ResultType == It->second.ReturnType))
        return fail("T9: result type does not match the signature");
      if (Step.ResultType.isRegionful() &&
          !after(Step).Heap.hasRegion(Step.ResultRegion))
        return fail("T9: result region missing from H");
      return success();
    }
    default:
      break;
    }
    // Other rules: structural checks (well-formedness, children) already
    // ran; result-region sanity where applicable.
    if (Step.ResultType.isRegionful() && Step.ResultRegion.isValid() &&
        !after(Step).Heap.hasRegion(Step.ResultRegion))
      return fail(std::string(ruleName(Step.Rule)) +
                  ": result region missing from H");
    return success();
  }

  Failure fail(std::string Message) {
    return fearless::fail("verifier: " + Message +
                          (CurrentExpr.empty() ? "" : " [at " + CurrentExpr +
                                                          "]"));
  }

  const CheckedProgram &Program;
  const CheckedFunction &Fn;
  const Interner &Names;
  const Derivation *D = nullptr;
  /// Per snapshot: already found well-formed.
  std::vector<bool> WellFormed;
  VerifyStats Stats;
  std::string CurrentExpr;
};

} // namespace

Expected<VerifyStats> fearless::verifyFunction(const CheckedProgram &Program,
                                               const CheckedFunction &Fn) {
  return Verifier(Program, Fn).run();
}

Expected<VerifyStats> fearless::verifyProgram(const CheckedProgram &Program) {
  VerifyStats Total;
  for (const auto &[Name, Fn] : Program.Functions) {
    (void)Name;
    if (!Fn.Deriv)
      continue;
    Expected<VerifyStats> Stats = verifyFunction(Program, Fn);
    if (!Stats)
      return Stats.takeFailure();
    Total.StepsChecked += Stats->StepsChecked;
    Total.VirtualStepsChecked += Stats->VirtualStepsChecked;
  }
  return Total;
}

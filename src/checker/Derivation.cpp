//===- checker/Derivation.cpp ---------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "checker/Derivation.h"

#include "ast/AstPrinter.h"

#include <cassert>
#include <sstream>

using namespace fearless;

std::string_view fearless::ruleName(RuleId Rule) {
  switch (Rule) {
  case RuleId::T0FunctionDefinition:
    return "T0-Function-Definition";
  case RuleId::TIntLiteral:
    return "T-Int-Literal";
  case RuleId::TBoolLiteral:
    return "T-Bool-Literal";
  case RuleId::TUnit:
    return "T-Unit";
  case RuleId::T2VariableRef:
    return "T2-Variable-Ref";
  case RuleId::TFieldReference:
    return "T-Field-Reference";
  case RuleId::T5IsolatedFieldReference:
    return "T5-Isolated-Field-Reference";
  case RuleId::T8AssignVar:
    return "T8-Assign-Var";
  case RuleId::TFieldAssignment:
    return "T-Field-Assignment";
  case RuleId::T7IsolatedFieldAssignment:
    return "T7-Isolated-Field-Assignment";
  case RuleId::TLet:
    return "T-Let";
  case RuleId::TLetSome:
    return "T-Let-Some";
  case RuleId::T13IfStatement:
    return "T13-If-Statement";
  case RuleId::T15IfDisconnected:
    return "T15-If-Disconnected";
  case RuleId::TWhile:
    return "T-While";
  case RuleId::TWhileBody:
    return "T-While-Body";
  case RuleId::T3Sequence:
    return "T3-Sequence";
  case RuleId::T10NewLoc:
    return "T10-New-Loc";
  case RuleId::TSome:
    return "T-Some";
  case RuleId::TNone:
    return "T-None";
  case RuleId::TIsNone:
    return "T-Is-None";
  case RuleId::T16Send:
    return "T16-Send";
  case RuleId::T17Receive:
    return "T17-Receive";
  case RuleId::T9FunctionApplication:
    return "T9-Function-Application";
  case RuleId::TBinary:
    return "T-Binary";
  case RuleId::TUnary:
    return "T-Unary";
  case RuleId::V1Focus:
    return "V1-Focus";
  case RuleId::V2Unfocus:
    return "V2-Unfocus";
  case RuleId::V3Explore:
    return "V3-Explore";
  case RuleId::V4Retract:
    return "V4-Retract";
  case RuleId::V5Attach:
    return "V5-Attach";
  case RuleId::FDropRegion:
    return "F-Drop-Region";
  case RuleId::FPinRegion:
    return "F-Pin-Region";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Building
//===----------------------------------------------------------------------===//

SnapshotId Derivation::append(Contexts Ctx) {
  Snapshots.push_back(std::move(Ctx));
  return static_cast<SnapshotId>(Snapshots.size() - 1);
}

SnapshotId Derivation::record(const Contexts &Ctx) {
  if (!Snapshots.empty() && Snapshots.back() == Ctx)
    return static_cast<SnapshotId>(Snapshots.size() - 1);
  return append(Ctx);
}

StepId Derivation::open(RuleId Rule, const Expr *E, const Contexts &Ctx) {
  DerivStep Step;
  Step.Rule = Rule;
  Step.E = E;
  Step.Before = record(Ctx);
  Steps.push_back(std::move(Step));
  return static_cast<StepId>(Steps.size() - 1);
}

void Derivation::close(StepId Id, const Contexts &Ctx,
                       RegionId ResultRegion, Type ResultType) {
  // A step whose children changed the context and then changed it back
  // (a let's scope, a branch merge) ends where it began.
  SnapshotId Before = Steps[Id].Before;
  SnapshotId After = Snapshots[Before] == Ctx ? Before : record(Ctx);
  DerivStep &Step = Steps[Id];
  Step.After = After;
  Step.ResultRegion = ResultRegion;
  Step.ResultType = ResultType;
}

void Derivation::link(StepId Parent, StepId Child) {
  assert(Steps[Child].NextSibling == NoStep && "step linked twice");
  DerivStep &P = Steps[Parent];
  if (P.LastChild == NoStep)
    P.FirstChild = Child;
  else
    Steps[P.LastChild].NextSibling = Child;
  P.LastChild = Child;
}

void Derivation::addVirtual(StepId Parent, RuleId Rule, std::string Detail,
                            SnapshotId Before, SnapshotId After) {
  DerivStep Step;
  Step.Rule = Rule;
  Step.Detail = std::move(Detail);
  Step.Before = Before;
  Step.After = After;
  Steps.push_back(std::move(Step));
  link(Parent, static_cast<StepId>(Steps.size() - 1));
}

void Derivation::truncate(Mark M) {
  assert(M.Steps <= Steps.size() && M.Snapshots <= Snapshots.size());
  Steps.resize(M.Steps);
  Snapshots.resize(M.Snapshots);
}

Contexts &Derivation::ownBefore(StepId Id) {
  SnapshotId Copy = append(Snapshots[Steps[Id].Before]);
  Steps[Id].Before = Copy;
  return Snapshots[Copy];
}

Contexts &Derivation::ownAfter(StepId Id) {
  SnapshotId Copy = append(Snapshots[Steps[Id].After]);
  Steps[Id].After = Copy;
  return Snapshots[Copy];
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

namespace {

void printStep(const Derivation &D, const DerivStep &Step,
               const Interner &Names, unsigned Indent, std::ostream &OS) {
  for (unsigned I = 0; I < Indent; ++I)
    OS << "  ";
  OS << ruleName(Step.Rule);
  if (!Step.Detail.empty())
    OS << " [" << Step.Detail << "]";
  if (Step.E)
    OS << "  e = " << printExpr(*Step.E, Names);
  OS << "\n";
  for (unsigned I = 0; I < Indent; ++I)
    OS << "  ";
  OS << "  ⊢ " << toString(D.before(Step), Names) << "\n";
  D.forEachChild(Step, [&](const DerivStep &Child) {
    printStep(D, Child, Names, Indent + 1, OS);
  });
  for (unsigned I = 0; I < Indent; ++I)
    OS << "  ";
  OS << "  ⊣ " << toString(D.after(Step), Names);
  if (Step.ResultType.isValid()) {
    OS << "  : ";
    if (Step.ResultRegion.isValid())
      OS << toString(Step.ResultRegion) << " ";
    OS << toString(Step.ResultType, Names);
  }
  OS << "\n";
}

} // namespace

std::string fearless::printDerivation(const Derivation &D,
                                      const Interner &Names) {
  std::ostringstream OS;
  printStep(D, D.root(), Names, 0, OS);
  return OS.str();
}

namespace {

/// Escapes a string for a dot label.
std::string dotEscape(const std::string &Text) {
  std::string Out;
  for (char C : Text) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (C == '\n') {
      Out += "\\n";
      continue;
    }
    Out += C;
  }
  return Out;
}

void dotStep(const Derivation &D, const DerivStep &Step,
             const Interner &Names, size_t &NextId, size_t Parent,
             std::ostream &OS) {
  size_t Id = NextId++;
  std::string_view Rule = ruleName(Step.Rule);
  bool IsVirtual = Rule[0] == 'V';
  bool IsFraming = Rule[0] == 'F';
  std::string Label(Rule);
  if (!Step.Detail.empty())
    Label += "\n" + Step.Detail;
  if (Step.E)
    Label += "\n" + printExpr(*Step.E, Names);
  Label += "\n⊣ " + toString(D.after(Step), Names);
  OS << "  n" << Id << " [label=\"" << dotEscape(Label) << "\", shape="
     << (IsVirtual ? "box, style=filled, fillcolor=lightblue"
         : IsFraming
             ? "box, style=filled, fillcolor=lightsalmon"
             : "box")
     << "];\n";
  if (Parent != SIZE_MAX)
    OS << "  n" << Parent << " -> n" << Id << ";\n";
  D.forEachChild(Step, [&](const DerivStep &Child) {
    dotStep(D, Child, Names, NextId, Id, OS);
  });
}

} // namespace

std::string fearless::printDerivationDot(const Derivation &D,
                                         const Interner &Names) {
  std::ostringstream OS;
  OS << "digraph derivation {\n"
     << "  node [fontname=\"monospace\", fontsize=9];\n"
     << "  rankdir=TB;\n";
  size_t NextId = 0;
  dotStep(D, D.root(), Names, NextId, SIZE_MAX, OS);
  OS << "}\n";
  return OS.str();
}

namespace {

size_t countFrom(const Derivation &D, const DerivStep &Step,
                 std::optional<RuleId> Rule) {
  size_t Count = !Rule || Step.Rule == *Rule ? 1 : 0;
  D.forEachChild(Step, [&](const DerivStep &Child) {
    Count += countFrom(D, Child, Rule);
  });
  return Count;
}

} // namespace

size_t fearless::countSteps(const Derivation &D,
                            std::optional<RuleId> Rule) {
  return countFrom(D, D.root(), Rule);
}

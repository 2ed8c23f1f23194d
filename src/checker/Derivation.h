//===- checker/Derivation.h - Explicit typing derivations -------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checker (the "prover" of §5) emits an explicit derivation: a tree
/// of rule applications, each recording its input and output contexts
/// and, for expression rules, the result region and type. The independent
/// verifier re-checks every node against the declarative rules without
/// trusting the prover's search — mirroring the paper's OCaml-prover /
/// Coq-verifier architecture.
///
/// One function's derivation is two flat tables: its steps, children
/// linked by index, and the distinct contexts the steps refer to. Most
/// steps leave the context unchanged, so consecutive steps share one
/// snapshot instead of each holding its own copies.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_CHECKER_DERIVATION_H
#define FEARLESS_CHECKER_DERIVATION_H

#include "ast/Ast.h"
#include "regions/Contexts.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fearless {

/// The rules a derivation step can apply, named as in the paper.
enum class RuleId : uint8_t {
  T0FunctionDefinition,
  TIntLiteral,
  TBoolLiteral,
  TUnit,
  T2VariableRef,
  TFieldReference,
  T5IsolatedFieldReference,
  T8AssignVar,
  TFieldAssignment,
  T7IsolatedFieldAssignment,
  TLet,
  TLetSome,
  T13IfStatement,
  T15IfDisconnected,
  TWhile,
  TWhileBody,
  T3Sequence,
  T10NewLoc,
  TSome,
  TNone,
  TIsNone,
  T16Send,
  T17Receive,
  T9FunctionApplication,
  TBinary,
  TUnary,
  // Virtual transformations (Fig. 11) and framing weakenings.
  V1Focus,
  V2Unfocus,
  V3Explore,
  V4Retract,
  V5Attach,
  FDropRegion,
  FPinRegion,
};

/// The rule's label, e.g. "V1-Focus" or "T2-Variable-Ref".
std::string_view ruleName(RuleId Rule);

/// Index of a step in Derivation::steps().
using StepId = uint32_t;
/// Index of a context in Derivation::snapshots().
using SnapshotId = uint32_t;
inline constexpr StepId NoStep = UINT32_MAX;

/// One rule application. Expression rules carry the expression and
/// result; virtual-transformation / framing steps carry only contexts.
struct DerivStep {
  RuleId Rule = RuleId::T0FunctionDefinition;
  std::string Detail; ///< Human-readable instantiation, e.g. "focus x in r3".
  const Expr *E = nullptr;
  SnapshotId Before = 0;
  SnapshotId After = 0;
  RegionId ResultRegion; ///< Invalid for primitives and V/F steps.
  Type ResultType;       ///< Invalid for V/F steps.
  StepId FirstChild = NoStep;
  StepId LastChild = NoStep;
  StepId NextSibling = NoStep;
};

/// One function's derivation. Step 0 is the root (T0). Steps are stored
/// in the order they were opened, so a subtree opened last is a suffix
/// of the table and can be discarded with truncate().
class Derivation {
public:
  //===--------------------------------------------------------------------===
  // Reading
  //===--------------------------------------------------------------------===

  const DerivStep &root() const { return Steps.front(); }
  const DerivStep &step(StepId Id) const { return Steps[Id]; }
  const std::vector<DerivStep> &steps() const { return Steps; }
  const Contexts &snapshot(SnapshotId Id) const { return Snapshots[Id]; }
  const std::vector<Contexts> &snapshots() const { return Snapshots; }
  const Contexts &before(const DerivStep &S) const {
    return Snapshots[S.Before];
  }
  const Contexts &after(const DerivStep &S) const {
    return Snapshots[S.After];
  }

  /// Calls \p Fn on each child of \p Parent, in the order they were
  /// linked.
  template <typename FnT> void forEachChild(const DerivStep &Parent,
                                            FnT &&Fn) const {
    for (StepId C = Parent.FirstChild; C != NoStep; C = Steps[C].NextSibling)
      Fn(Steps[C]);
  }

  //===--------------------------------------------------------------------===
  // Building (the checker)
  //===--------------------------------------------------------------------===

  /// The id of a snapshot equal to \p Ctx: the last one recorded when it
  /// still matches, else a new one.
  SnapshotId record(const Contexts &Ctx);

  /// Appends an unlinked step with Before = \p Ctx.
  StepId open(RuleId Rule, const Expr *E, const Contexts &Ctx);

  /// Sets the step's After context and result. After shares the step's
  /// Before snapshot, or else the last one recorded, when equal to it.
  void close(StepId Id, const Contexts &Ctx, RegionId ResultRegion = {},
             Type ResultType = {});

  /// Appends \p Child to \p Parent's children.
  void link(StepId Parent, StepId Child);

  /// Appends a linked child of \p Parent whose context goes from
  /// \p Before to \p After (a V- or F-step).
  void addVirtual(StepId Parent, RuleId Rule, std::string Detail,
                  SnapshotId Before, SnapshotId After);

  DerivStep &step(StepId Id) { return Steps[Id]; }

  /// The table sizes, to truncate() back to.
  struct Mark {
    size_t Steps = 0;
    size_t Snapshots = 0;
  };
  Mark mark() const { return {Steps.size(), Snapshots.size()}; }

  /// Drops every step and snapshot added since \p M. The dropped steps
  /// must not be linked from a kept one.
  void truncate(Mark M);

  //===--------------------------------------------------------------------===
  // Tampering (tests simulate prover bugs through these)
  //===--------------------------------------------------------------------===

  /// The shared snapshot itself: a change shows in every step that
  /// refers to it.
  Contexts &snapshot(SnapshotId Id) { return Snapshots[Id]; }
  /// Gives step \p Id a private copy of its Before (or After) context
  /// and returns it, leaving the steps that shared the old one as they
  /// were.
  Contexts &ownBefore(StepId Id);
  Contexts &ownAfter(StepId Id);

private:
  SnapshotId append(Contexts Ctx);

  std::vector<DerivStep> Steps;
  std::vector<Contexts> Snapshots;
};

/// Where the checker's helpers record steps: as children of \p Parent in
/// \p Deriv. A null Deriv records nothing.
struct DerivSink {
  Derivation *Deriv = nullptr;
  StepId Parent = NoStep;

  explicit operator bool() const { return Deriv != nullptr; }
};

/// Renders the derivation tree, indented, for debugging and docs.
std::string printDerivation(const Derivation &D, const Interner &Names);

/// Renders the derivation as a Graphviz digraph: one node per rule
/// application (virtual transformations highlighted), labeled with the
/// rule, the instantiation detail, and the output context.
std::string printDerivationDot(const Derivation &D, const Interner &Names);

/// Counts the steps reachable from the root whose rule is \p Rule
/// (nullopt: all of them).
size_t countSteps(const Derivation &D, std::optional<RuleId> Rule = {});

} // namespace fearless

#endif // FEARLESS_CHECKER_DERIVATION_H

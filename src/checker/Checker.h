//===- checker/Checker.h - The region type checker --------------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's type checker (the "prover" of §5): syntax-directed T rules
/// over (H; Γ) contexts, with virtual transformations (Fig. 11) inserted
/// on demand, framing at calls (TS2/T9), liveness-guided unification at
/// merges (§4.6/§5.1), and emission of explicit derivations that the
/// verifier re-checks independently.
///
/// Entry point: checkProgram. Well-typed programs are guaranteed free of
/// destructive data races (Theorems 6.1/6.2); the runtime's dynamic
/// reservation checks never fire on them (validated by tests).
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_CHECKER_CHECKER_H
#define FEARLESS_CHECKER_CHECKER_H

#include "checker/Derivation.h"
#include "sema/Signature.h"
#include "sema/StructTable.h"
#include "support/Expected.h"

#include <map>
#include <memory>
#include <optional>

namespace fearless {

/// Tuning knobs; defaults match the paper's configuration (liveness
/// oracle enabled, derivations emitted).
struct CheckerOptions {
  bool UseLivenessOracle = true;
  bool EmitDerivations = true;
  size_t UnifySearchLimit = 1 << 14;
};

/// Counters describing one function's check.
struct CheckStats {
  size_t VirtualSteps = 0;        ///< V/F rule applications.
  size_t UnifyCandidates = 0;     ///< Unification targets tried (§4.6).
  size_t LoopIterations = 0;      ///< While fixpoint refinements.
};

/// One successfully checked function.
struct CheckedFunction {
  FnSignature Sig;
  std::optional<Derivation> Deriv; ///< Empty if not emitted.
  CheckStats Stats;
};

/// A successfully checked program: everything the runtime and verifier
/// need.
struct CheckedProgram {
  const Program *Prog = nullptr;
  StructTable Structs;
  std::map<Symbol, FnSignature> Signatures;
  std::map<Symbol, CheckedFunction> Functions;
  /// Static operand type of every send expression (the τ of send-τ); the
  /// runtime pairs senders and receivers by exact type.
  std::map<const Expr *, Type> SendTypes;
};

/// Checks all functions of \p P. On failure the diagnostic names the rule
/// that could not be applied and the offending contexts.
Expected<CheckedProgram> checkProgram(const Program &P,
                                      const CheckerOptions &Opts = {});

} // namespace fearless

#endif // FEARLESS_CHECKER_CHECKER_H

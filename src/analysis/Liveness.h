//===- analysis/Liveness.h - Liveness of vars and iso fields ----*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unification oracle of §5.1: "by employing liveness analysis of
/// variables and isolated fields as a unification oracle, our checker can
/// verify our largest examples in a handful of seconds."
///
/// This module computes, per expression, the set of variables read or
/// written and the set of (variable, field) pairs whose tracking a
/// continuation may need: direct accesses `x.f`, assignments `x.f = e`,
/// and calls whose signature demands `x.f` tracked via an `after:` path.
/// The checker threads a Continuation (liveness after the current point)
/// downward and consults it when deciding which linear resources to
/// preserve at branch merges.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_ANALYSIS_LIVENESS_H
#define FEARLESS_ANALYSIS_LIVENESS_H

#include "ast/Ast.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

namespace fearless {

/// Inserts \p X into the sorted, duplicate-free \p Set.
template <typename T> void insertSorted(std::vector<T> &Set, const T &X) {
  auto It = std::lower_bound(Set.begin(), Set.end(), X);
  if (It == Set.end() || *It != X)
    Set.insert(It, X);
}

/// Variables and field slots an expression (sub)tree may use. Both sets
/// are small sorted vectors: a function mentions few names, and a flat
/// set is copied and merged without allocating per element.
struct UseSet {
  std::vector<Symbol> Vars;                          ///< Sorted, distinct.
  std::vector<std::pair<Symbol, Symbol>> FieldUses; ///< (var, field), sorted.

  void addVar(Symbol Var) { insertSorted(Vars, Var); }
  void addField(Symbol Var, Symbol Field) {
    insertSorted(FieldUses, {Var, Field});
  }
  void eraseVar(Symbol Var);
  void merge(const UseSet &Other);
  void clear() {
    Vars.clear();
    FieldUses.clear();
  }
  bool usesVar(Symbol Var) const {
    return std::binary_search(Vars.begin(), Vars.end(), Var);
  }
  bool usesField(Symbol Var, Symbol Field) const {
    return std::binary_search(FieldUses.begin(), FieldUses.end(),
                              std::pair<Symbol, Symbol>{Var, Field});
  }
};

/// Liveness information at a program point: what the continuation still
/// needs. ResultLive distinguishes value position from statement position.
struct Continuation {
  UseSet Live;
  bool ResultLive = true;
  /// Variables whose region capability must survive merges even when the
  /// variable itself is dead: function parameters (the signature's output
  /// context mentions them) — the "wanted" set of the unification oracle.
  /// Sorted, distinct.
  std::vector<Symbol> AlwaysValid;

  /// True when the continuation (or the function contract) still cares
  /// about \p Var's capability.
  bool wants(Symbol Var) const {
    return Live.usesVar(Var) ||
           std::binary_search(AlwaysValid.begin(), AlwaysValid.end(), Var);
  }

  /// Continuation extended with the uses of expressions evaluated later
  /// in the same sequence.
  Continuation withUses(const UseSet &Uses) const {
    Continuation Out = *this;
    Out.Live.merge(Uses);
    return Out;
  }
};

/// Memoizing computer of UseSets, one function body at a time. Calls
/// contribute the callee's `after` field paths applied to the actual
/// argument variables.
class UseCache {
public:
  explicit UseCache(const Program &P) : P(P) {}

  /// The uses of \p E (computed once, cached by node identity until the
  /// next clear()). The reference stays valid until clear().
  const UseSet &uses(const Expr &E);

  /// Forgets every cached set, keeping the storage for the next body.
  void clear() {
    ++Epoch;
    Count = 0;
    NumSets = 0;
  }

private:
  void compute(const Expr &E, UseSet &Set);

  /// One open-addressing slot: live only when stamped with the current
  /// epoch, so clear() is O(1).
  struct Entry {
    const Expr *Key = nullptr;
    uint32_t Set = 0;
    uint32_t Epoch = 0;
  };
  Entry *find(const Expr *Key);
  void grow();

  const Program &P;
  std::vector<Entry> Table; ///< Power-of-two size, linear probing.
  size_t Count = 0;         ///< Live entries.
  uint32_t Epoch = 1;
  /// Cached sets; a deque, so growth never moves a handed-out set, and
  /// sets past NumSets keep their capacity for reuse.
  std::deque<UseSet> Sets;
  size_t NumSets = 0;
};

} // namespace fearless

#endif // FEARLESS_ANALYSIS_LIVENESS_H

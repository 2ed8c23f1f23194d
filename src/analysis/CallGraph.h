//===- analysis/CallGraph.h - Program call graph + SCC order ----*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The syntactic call graph of a program and its strongly-connected-
/// component condensation, in bottom-up (callees-before-callers) order.
/// This is the skeleton the interprocedural summary engine (Summary.h)
/// walks: each SCC is analyzed to a fixpoint before any of its callers,
/// so a callee's region-effect summary is always available (or soundly
/// pessimized) when a call site is interpreted.
///
/// The graph is purely syntactic — every `f(...)` call expression adds an
/// edge to `f` if a function of that name exists; calls to unknown names
/// (rejected later by the checker anyway) are ignored. Ordering is
/// deterministic: callee lists keep first-occurrence order, and the SCC
/// order is the reverse of Tarjan's completion order over functions
/// visited in program declaration order, which is a topological order of
/// the condensation.
///
/// Nodes are function indices (positions in Program::Functions). Callee
/// lists and SCC member lists are stored flat (CSR: one array of entries
/// plus one offset per node), so building the graph allocates a constant
/// number of arrays whatever the program size.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_ANALYSIS_CALLGRAPH_H
#define FEARLESS_ANALYSIS_CALLGRAPH_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace fearless {

struct Program;

/// Call graph over the functions of one program, by function index.
class CallGraph {
public:
  /// Builds the graph by walking every function body.
  static CallGraph build(const Program &P);

  /// The distinct functions \p Fn may call, in first-occurrence order.
  /// Empty for leaf functions.
  std::span<const uint32_t> callees(uint32_t Fn) const {
    return {CalleeList.data() + CalleeStart[Fn],
            CalleeList.data() + CalleeStart[Fn + 1]};
  }

  /// Call sites in \p Fn's body (not deduplicated, unknown callees
  /// included).
  size_t callSiteCount(uint32_t Fn) const { return CallSites[Fn]; }

  /// Number of strongly connected components.
  size_t sccCount() const { return SccStart.size() - 1; }

  /// The members of the SCC at \p SccIndex. SCCs are in bottom-up order:
  /// every callee of a member of SCC i outside the component itself
  /// belongs to some SCC j < i. Members are ordered by symbol id.
  std::span<const uint32_t> sccMembers(size_t SccIndex) const {
    return {SccList.data() + SccStart[SccIndex],
            SccList.data() + SccStart[SccIndex + 1]};
  }

  /// True when the SCC at \p SccIndex needs a fixpoint: more than one
  /// member, or a single member that calls itself.
  bool isRecursiveScc(size_t SccIndex) const;

  /// Index of the SCC containing \p Fn.
  size_t sccOf(uint32_t Fn) const { return SccOf[Fn]; }

  /// Total distinct call edges (sum of callees() sizes).
  size_t edgeCount() const { return CalleeList.size(); }

private:
  std::vector<uint32_t> CalleeList;  ///< All callee lists, back to back.
  std::vector<uint32_t> CalleeStart; ///< Functions + 1 offsets into it.
  std::vector<uint32_t> CallSites;
  std::vector<uint32_t> SccList;  ///< All SCC member lists, in order.
  std::vector<uint32_t> SccStart; ///< sccCount() + 1 offsets into it.
  std::vector<uint32_t> SccOf;
};

} // namespace fearless

#endif // FEARLESS_ANALYSIS_CALLGRAPH_H

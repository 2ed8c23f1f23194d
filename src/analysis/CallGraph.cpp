//===- analysis/CallGraph.cpp - Program call graph + SCC order ------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"

#include "ast/Ast.h"

#include <algorithm>
#include <cassert>

using namespace fearless;

namespace {

/// Calls \p OnCall for every call expression under \p Root, in preorder,
/// left to right. Iterative over the caller's \p Stack (reused across
/// bodies), so pathological bodies cannot overflow the C++ stack and a
/// walk allocates nothing once the stack has grown.
template <typename CallFn>
void forEachCall(const Expr *Root, std::vector<const Expr *> &Stack,
                 CallFn &&OnCall) {
  // Children are pushed last-first, so the pop order is source order.
  auto Push = [&Stack](const Expr *E) {
    if (E)
      Stack.push_back(E);
  };
  auto PushAll = [&Stack](const std::vector<ExprPtr> &Es) {
    for (auto It = Es.rbegin(); It != Es.rend(); ++It)
      if (It->get())
        Stack.push_back(It->get());
  };
  Stack.clear();
  Push(Root);
  while (!Stack.empty()) {
    const Expr *E = Stack.back();
    Stack.pop_back();
    switch (E->kind()) {
    case ExprKind::IntLit:
    case ExprKind::BoolLit:
    case ExprKind::UnitLit:
    case ExprKind::NoneLit:
    case ExprKind::VarRef:
    case ExprKind::Recv:
      break;
    case ExprKind::FieldRef:
      Push(cast<FieldRefExpr>(*E).Base.get());
      break;
    case ExprKind::AssignVar:
      Push(cast<AssignVarExpr>(*E).Value.get());
      break;
    case ExprKind::AssignField: {
      const auto &A = cast<AssignFieldExpr>(*E);
      Push(A.Value.get());
      Push(A.Base.get());
      break;
    }
    case ExprKind::Let: {
      const auto &L = cast<LetExpr>(*E);
      Push(L.Body.get());
      Push(L.Init.get());
      break;
    }
    case ExprKind::LetSome: {
      const auto &L = cast<LetSomeExpr>(*E);
      Push(L.NoneBody.get());
      Push(L.SomeBody.get());
      Push(L.Scrutinee.get());
      break;
    }
    case ExprKind::If: {
      const auto &I = cast<IfExpr>(*E);
      Push(I.Else.get());
      Push(I.Then.get());
      Push(I.Cond.get());
      break;
    }
    case ExprKind::IfDisconnected: {
      const auto &I = cast<IfDisconnectedExpr>(*E);
      Push(I.Else.get());
      Push(I.Then.get());
      break;
    }
    case ExprKind::While: {
      const auto &W = cast<WhileExpr>(*E);
      Push(W.Body.get());
      Push(W.Cond.get());
      break;
    }
    case ExprKind::Seq:
      PushAll(cast<SeqExpr>(*E).Elems);
      break;
    case ExprKind::New:
      PushAll(cast<NewExpr>(*E).Args);
      break;
    case ExprKind::SomeExpr:
      Push(cast<SomeExpr>(*E).Operand.get());
      break;
    case ExprKind::IsNone:
      Push(cast<IsNoneExpr>(*E).Operand.get());
      break;
    case ExprKind::Send:
      Push(cast<SendExpr>(*E).Operand.get());
      break;
    case ExprKind::Call: {
      const auto &C = cast<CallExpr>(*E);
      OnCall(C);
      PushAll(C.Args);
      break;
    }
    case ExprKind::Binary: {
      const auto &B = cast<BinaryExpr>(*E);
      Push(B.Rhs.get());
      Push(B.Lhs.get());
      break;
    }
    case ExprKind::Unary:
      Push(cast<UnaryExpr>(*E).Operand.get());
      break;
    }
  }
}

} // namespace

CallGraph CallGraph::build(const Program &P) {
  CallGraph G;
  const uint32_t N = static_cast<uint32_t>(P.Functions.size());
  constexpr uint32_t None = UINT32_MAX;

  // Callee lists, deduplicated by stamping each callee with the last
  // caller that listed it.
  G.CallSites.assign(N, 0);
  G.CalleeStart.reserve(N + 1);
  G.CalleeStart.push_back(0);
  std::vector<uint32_t> ListedBy(N, None);
  std::vector<const Expr *> Stack;
  for (uint32_t Fn = 0; Fn < N; ++Fn) {
    forEachCall(P.Functions[Fn].Body.get(), Stack, [&](const CallExpr &C) {
      ++G.CallSites[Fn];
      uint32_t Callee = P.functionIndex(C.Callee);
      if (Callee != Program::NoFunction && ListedBy[Callee] != Fn) {
        ListedBy[Callee] = Fn;
        G.CalleeList.push_back(Callee);
      }
    });
    G.CalleeStart.push_back(static_cast<uint32_t>(G.CalleeList.size()));
  }

  // Iterative Tarjan over functions in declaration order. Generated
  // corpora contain multi-thousand-function call chains, so recursion
  // depth must not track call-chain depth.
  std::vector<uint32_t> Index(N, None), Lowlink(N, 0);
  std::vector<uint8_t> OnStack(N, 0);
  std::vector<uint32_t> TarjanStack;
  uint32_t NextIndex = 0;
  G.SccOf.assign(N, 0);
  G.SccList.reserve(N);
  G.SccStart.push_back(0);

  struct Frame {
    uint32_t Fn;
    uint32_t NextChild = 0;
  };
  std::vector<Frame> Work;
  auto Visit = [&](uint32_t Fn) {
    Index[Fn] = Lowlink[Fn] = NextIndex++;
    OnStack[Fn] = 1;
    TarjanStack.push_back(Fn);
    Work.push_back({Fn, 0});
  };

  for (uint32_t Root = 0; Root < N; ++Root) {
    if (Index[Root] != None)
      continue;
    Visit(Root);
    while (!Work.empty()) {
      Frame &F = Work.back();
      std::span<const uint32_t> Kids = G.callees(F.Fn);
      if (F.NextChild < Kids.size()) {
        uint32_t Child = Kids[F.NextChild++];
        if (Index[Child] == None)
          Visit(Child); // F dangles from here on; not used again.
        else if (OnStack[Child])
          Lowlink[F.Fn] = std::min(Lowlink[F.Fn], Index[Child]);
        continue;
      }
      // F's children are exhausted: maybe pop an SCC, then propagate the
      // lowlink into the parent frame.
      uint32_t Done = F.Fn;
      if (Lowlink[Done] == Index[Done]) {
        size_t First = G.SccList.size();
        for (;;) {
          uint32_t Member = TarjanStack.back();
          TarjanStack.pop_back();
          OnStack[Member] = 0;
          G.SccOf[Member] = static_cast<uint32_t>(G.SccStart.size() - 1);
          G.SccList.push_back(Member);
          if (Member == Done)
            break;
        }
        // Tarjan pops components in reverse topological order, so
        // appending here directly yields the bottom-up order the summary
        // engine wants. Members are ordered by symbol id: the SCC
        // fixpoint visits them in this order.
        std::sort(G.SccList.begin() + First, G.SccList.end(),
                  [&](uint32_t A, uint32_t B) {
                    return P.Functions[A].Name < P.Functions[B].Name;
                  });
        G.SccStart.push_back(static_cast<uint32_t>(G.SccList.size()));
      }
      Work.pop_back();
      if (!Work.empty()) {
        uint32_t Parent = Work.back().Fn;
        Lowlink[Parent] = std::min(Lowlink[Parent], Lowlink[Done]);
      }
    }
  }

  return G;
}

bool CallGraph::isRecursiveScc(size_t SccIndex) const {
  assert(SccIndex < sccCount());
  std::span<const uint32_t> Members = sccMembers(SccIndex);
  if (Members.size() > 1)
    return true;
  std::span<const uint32_t> Kids = callees(Members.front());
  return std::find(Kids.begin(), Kids.end(), Members.front()) != Kids.end();
}

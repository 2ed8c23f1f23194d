#include "analysis/Liveness.h"

using namespace fearless;

namespace {

/// Merges the sorted, duplicate-free \p From into \p Into.
template <typename T>
void unionInto(std::vector<T> &Into, const std::vector<T> &From) {
  if (From.empty())
    return;
  if (Into.empty()) {
    Into.assign(From.begin(), From.end());
    return;
  }
  auto Hint = Into.begin();
  for (const T &X : From) {
    Hint = std::lower_bound(Hint, Into.end(), X);
    if (Hint == Into.end() || *Hint != X)
      Hint = Into.insert(Hint, X);
    ++Hint;
  }
}

/// Multiplicative hash of a node address. The low bits of an address are
/// alignment, so they are shifted out first; the table takes the low
/// bits of the result, which mixes address bits 4 and up.
size_t hashExpr(const Expr *E) {
  return static_cast<size_t>(
      (reinterpret_cast<uintptr_t>(E) >> 4) * 0x9E3779B97F4A7C15ull >> 17);
}

} // namespace

void UseSet::eraseVar(Symbol Var) {
  auto It = std::lower_bound(Vars.begin(), Vars.end(), Var);
  if (It != Vars.end() && *It == Var)
    Vars.erase(It);
}

void UseSet::merge(const UseSet &Other) {
  unionInto(Vars, Other.Vars);
  unionInto(FieldUses, Other.FieldUses);
}

UseCache::Entry *UseCache::find(const Expr *Key) {
  size_t Mask = Table.size() - 1;
  for (size_t I = hashExpr(Key) & Mask;; I = (I + 1) & Mask) {
    Entry &Slot = Table[I];
    if (Slot.Epoch != Epoch || Slot.Key == Key)
      return &Slot;
  }
}

void UseCache::grow() {
  std::vector<Entry> Old = std::move(Table);
  Table.assign(Old.empty() ? 256 : 2 * Old.size(), Entry{});
  for (const Entry &E : Old)
    if (E.Epoch == Epoch)
      *find(E.Key) = E;
}

const UseSet &UseCache::uses(const Expr &E) {
  if (2 * (Count + 1) > Table.size())
    grow();
  Entry *Slot = find(&E);
  if (Slot->Epoch == Epoch)
    return Sets[Slot->Set];
  *Slot = Entry{&E, static_cast<uint32_t>(NumSets), Epoch};
  ++Count;
  if (NumSets == Sets.size())
    Sets.emplace_back();
  UseSet &Set = Sets[NumSets++];
  Set.clear();
  // May grow the table (Slot dangles) but never moves Set.
  compute(E, Set);
  return Set;
}

void UseCache::compute(const Expr &E, UseSet &Set) {
  switch (E.kind()) {
  case ExprKind::IntLit:
  case ExprKind::BoolLit:
  case ExprKind::UnitLit:
  case ExprKind::NoneLit:
  case ExprKind::Recv:
    break;
  case ExprKind::VarRef:
    Set.addVar(cast<VarRefExpr>(E).Name);
    break;
  case ExprKind::FieldRef: {
    const auto &F = cast<FieldRefExpr>(E);
    Set.merge(uses(*F.Base));
    if (const auto *Var = dyn_cast<VarRefExpr>(F.Base.get()))
      Set.addField(Var->Name, F.Field);
    break;
  }
  case ExprKind::AssignVar: {
    const auto &A = cast<AssignVarExpr>(E);
    Set.addVar(A.Name);
    Set.merge(uses(*A.Value));
    break;
  }
  case ExprKind::AssignField: {
    const auto &A = cast<AssignFieldExpr>(E);
    Set.merge(uses(*A.Base));
    Set.merge(uses(*A.Value));
    if (const auto *Var = dyn_cast<VarRefExpr>(A.Base.get()))
      Set.addField(Var->Name, A.Field);
    break;
  }
  case ExprKind::Let: {
    const auto &L = cast<LetExpr>(E);
    Set.merge(uses(*L.Init));
    Set.merge(uses(*L.Body));
    // The bound variable is local; its uses are harmless to keep (no
    // shadowing), but drop them for precision.
    Set.eraseVar(L.Name);
    break;
  }
  case ExprKind::LetSome: {
    const auto &L = cast<LetSomeExpr>(E);
    Set.merge(uses(*L.Scrutinee));
    Set.merge(uses(*L.SomeBody));
    Set.merge(uses(*L.NoneBody));
    Set.eraseVar(L.Name);
    break;
  }
  case ExprKind::If: {
    const auto &I = cast<IfExpr>(E);
    Set.merge(uses(*I.Cond));
    Set.merge(uses(*I.Then));
    if (I.Else)
      Set.merge(uses(*I.Else));
    break;
  }
  case ExprKind::IfDisconnected: {
    const auto &I = cast<IfDisconnectedExpr>(E);
    Set.addVar(I.VarA);
    Set.addVar(I.VarB);
    Set.merge(uses(*I.Then));
    Set.merge(uses(*I.Else));
    break;
  }
  case ExprKind::While: {
    const auto &W = cast<WhileExpr>(E);
    Set.merge(uses(*W.Cond));
    Set.merge(uses(*W.Body));
    break;
  }
  case ExprKind::Seq:
    for (const ExprPtr &Elem : cast<SeqExpr>(E).Elems)
      Set.merge(uses(*Elem));
    break;
  case ExprKind::New:
    for (const ExprPtr &Arg : cast<NewExpr>(E).Args)
      Set.merge(uses(*Arg));
    break;
  case ExprKind::SomeExpr:
    Set.merge(uses(*cast<SomeExpr>(E).Operand));
    break;
  case ExprKind::IsNone:
    Set.merge(uses(*cast<IsNoneExpr>(E).Operand));
    break;
  case ExprKind::Send:
    Set.merge(uses(*cast<SendExpr>(E).Operand));
    break;
  case ExprKind::Call: {
    const auto &C = cast<CallExpr>(E);
    for (const ExprPtr &Arg : C.Args)
      Set.merge(uses(*Arg));
    // A call whose signature tracks `p.f` (after-paths) is a field use of
    // the actual argument bound to p.
    if (const FnDecl *Callee = P.findFunction(C.Callee)) {
      auto FieldUseOfPath = [&](const AnnotPath &Path) {
        if (Path.IsResult || !Path.Field.isValid())
          return;
        for (size_t I = 0; I < Callee->Params.size() && I < C.Args.size();
             ++I) {
          if (Callee->Params[I].Name != Path.Base)
            continue;
          if (const auto *Var = dyn_cast<VarRefExpr>(C.Args[I].get()))
            Set.addField(Var->Name, Path.Field);
        }
      };
      for (const AfterRelation &Rel : Callee->Afters) {
        FieldUseOfPath(Rel.Lhs);
        FieldUseOfPath(Rel.Rhs);
      }
      for (const AfterRelation &Rel : Callee->Befores) {
        FieldUseOfPath(Rel.Lhs);
        FieldUseOfPath(Rel.Rhs);
      }
    }
    break;
  }
  case ExprKind::Binary: {
    const auto &B = cast<BinaryExpr>(E);
    Set.merge(uses(*B.Lhs));
    Set.merge(uses(*B.Rhs));
    break;
  }
  case ExprKind::Unary:
    Set.merge(uses(*cast<UnaryExpr>(E).Operand));
    break;
  }
}

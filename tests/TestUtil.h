//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_TESTS_TESTUTIL_H
#define FEARLESS_TESTS_TESTUTIL_H

#include "driver/CompilePipeline.h"
#include "runtime/Machine.h"

#include <gtest/gtest.h>

namespace fearless::testutil {

/// Builds \p Source through buildArtifact, failing the test on error.
inline std::shared_ptr<const CompiledArtifact>
mustBuild(std::string_view Source, const PipelineOptions &Opts = {}) {
  Expected<std::shared_ptr<const CompiledArtifact>> Result =
      buildArtifact(Source, Opts);
  EXPECT_TRUE(Result.hasValue())
      << (Result.hasValue() ? "" : Result.error().render());
  if (!Result)
    return std::make_shared<const CompiledArtifact>();
  return *Result;
}

/// Interns a name in a compiled program.
inline Symbol sym(const Pipeline &P, std::string_view Name) {
  return P.Prog->Names.intern(Name);
}

/// Builds an sll with payload values from \p Values (front to back) into
/// thread \p T's reservation. Requires the SllSuite struct layout.
inline Loc buildSll(const Pipeline &P, Machine &M, ThreadId T,
                    const std::vector<int64_t> &Values) {
  Symbol SllSym = sym(P, "sll");
  Symbol NodeSym = sym(P, "sll_node");
  Symbol DataSym = sym(P, "data");
  Symbol HdSym = sym(P, "hd");
  Symbol NextSym = sym(P, "next");
  Symbol PayloadSym = sym(P, "payload");
  Symbol ValueSym = sym(P, "value");

  Loc List = M.hostAlloc(T, SllSym);
  Value Next = Value::noneVal();
  for (size_t I = Values.size(); I-- > 0;) {
    Loc Node = M.hostAlloc(T, NodeSym);
    Loc Payload = M.hostAlloc(T, DataSym);
    M.hostSetField(Payload, ValueSym, Value::intVal(Values[I]));
    M.hostSetField(Node, PayloadSym, Value::locVal(Payload));
    M.hostSetField(Node, NextSym, Next);
    Next = Value::locVal(Node);
  }
  M.hostSetField(List, HdSym, Next);
  return List;
}

/// Builds a circular dll with payload values (front to back) into thread
/// \p T's reservation. Requires the DllSuite struct layout.
inline Loc buildDll(const Pipeline &P, Machine &M, ThreadId T,
                    const std::vector<int64_t> &Values) {
  Symbol DllSym = sym(P, "dll");
  Symbol NodeSym = sym(P, "dll_node");
  Symbol DataSym = sym(P, "data");
  Symbol HdSym = sym(P, "hd");
  Symbol NextSym = sym(P, "next");
  Symbol PrevSym = sym(P, "prev");
  Symbol PayloadSym = sym(P, "payload");
  Symbol ValueSym = sym(P, "value");

  Loc List = M.hostAlloc(T, DllSym);
  if (Values.empty())
    return List;
  std::vector<Loc> Nodes;
  for (int64_t V : Values) {
    Loc Node = M.hostAlloc(T, NodeSym);
    Loc Payload = M.hostAlloc(T, DataSym);
    M.hostSetField(Payload, ValueSym, Value::intVal(V));
    M.hostSetField(Node, PayloadSym, Value::locVal(Payload));
    Nodes.push_back(Node);
  }
  for (size_t I = 0; I < Nodes.size(); ++I) {
    size_t NextI = (I + 1) % Nodes.size();
    size_t PrevI = (I + Nodes.size() - 1) % Nodes.size();
    M.hostSetField(Nodes[I], NextSym, Value::locVal(Nodes[NextI]));
    M.hostSetField(Nodes[I], PrevSym, Value::locVal(Nodes[PrevI]));
  }
  M.hostSetField(List, HdSym, Value::locVal(Nodes.front()));
  return List;
}

/// Reads the payload values of an sll (following hd/next), by host access.
inline std::vector<int64_t> readSll(const Pipeline &P, const Machine &M,
                                    Loc List) {
  std::vector<int64_t> Out;
  const Heap &H = M.heap();
  const StructInfo *Node = M.heap().structs().lookup(
      P.Prog->Names.intern("sll_node"));
  (void)Node;
  Symbol HdSym = P.Prog->Names.intern("hd");
  Symbol NextSym = P.Prog->Names.intern("next");
  Symbol PayloadSym = P.Prog->Names.intern("payload");
  Symbol ValueSym = P.Prog->Names.intern("value");
  auto FieldByName = [&](Loc L, Symbol Name) {
    const Object &O = H.get(L);
    const FieldInfo *F = O.Struct->findField(Name);
    EXPECT_NE(F, nullptr);
    return O.Fields[F->Index];
  };
  Value Cur = FieldByName(List, HdSym);
  while (Cur.isLoc()) {
    Value Payload = FieldByName(Cur.asLoc(), PayloadSym);
    EXPECT_TRUE(Payload.isLoc());
    Out.push_back(FieldByName(Payload.asLoc(), ValueSym).asInt());
    Cur = FieldByName(Cur.asLoc(), NextSym);
  }
  return Out;
}

} // namespace fearless::testutil

#endif // FEARLESS_TESTS_TESTUTIL_H

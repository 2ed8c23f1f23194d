//===- runtime/Heap.cpp ---------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"

#include "runtime/RuntimeFault.h"

#include <new>

using namespace fearless;

void Heap::heapFault(Loc L) const {
  RuntimeFault F;
  F.Kind = RuntimeFaultKind::InvalidHeapAccess;
  F.Location = L;
  raiseRuntimeFault(F); // throws in release, aborts in debug
}

void Heap::fieldFault(Loc L, uint32_t FieldIndex) const {
  RuntimeFault F;
  F.Kind = RuntimeFaultKind::InvalidFieldAccess;
  F.Location = L;
  F.Detail = FieldIndex;
  raiseRuntimeFault(F);
}

Heap::Heap(const StructTable &Structs, size_t MaxObjects)
    : Structs(Structs),
      MaxBlocks(static_cast<uint32_t>((MaxObjects + BlockSize - 1) /
                                      BlockSize)),
      // new T[n] without () default-initializes: the directory stays
      // untouched until allocation reaches each block.
      Blocks(new Object *[MaxBlocks]) {}

Heap::~Heap() {
  uint32_t N = Count.load(std::memory_order_acquire);
  for (uint32_t Index = 0; Index < N; ++Index)
    Blocks[Index >> BlockShift][Index & (BlockSize - 1)].~Object();
  std::allocator<Object> Alloc;
  for (uint32_t B = 0; B < NumBlocks; ++B)
    Alloc.deallocate(Blocks[B], BlockSize);
}

Object &Heap::construct(uint32_t Index) {
  uint32_t Block = Index >> BlockShift;
  if (Block == NumBlocks) {
    Blocks[Block] = std::allocator<Object>().allocate(BlockSize);
    ++NumBlocks;
  }
  return *new (&Blocks[Block][Index & (BlockSize - 1)]) Object();
}

Loc Heap::allocate(Symbol StructName) {
  const StructInfo *Info = Structs.lookup(StructName);
  if (!Info)
    return Loc::invalid(); // unknown struct: nothing sane to build

  uint32_t Index;
  {
    std::lock_guard<std::mutex> Lock(AllocMutex);
    Index = Count.load(std::memory_order_relaxed);
    if ((Index >> BlockShift) >= MaxBlocks)
      return Loc::invalid(); // heap exhausted: a real, checkable outcome

    Object &O = construct(Index);
    O.Struct = Info;
    O.Fields.assign(Info->Fields.size(), Value());
    Loc Self{Index};
    for (const FieldInfo &F : Info->Fields) {
      Value &Slot = O.Fields[F.Index];
      if (F.FieldType.isMaybe()) {
        Slot = Value::noneVal();
      } else if (F.FieldType.BaseKind == Type::Base::Int) {
        Slot = Value::intVal(0);
      } else if (F.FieldType.BaseKind == Type::Base::Bool) {
        Slot = Value::boolVal(false);
      } else if (F.FieldType.BaseKind == Type::Base::Unit) {
        Slot = Value::unitVal();
      } else if (!F.Iso && F.FieldType.StructName == StructName) {
        // Non-maybe same-struct field: self-reference.
        Slot = Value::locVal(Self);
        ++O.StoredRefCount; // self-references are non-iso heap refs
      } else {
        // No default exists; the checker guarantees an initializer is
        // stored before this placeholder can be observed.
        Slot = Value::noneVal();
      }
    }
    Count.store(Index + 1, std::memory_order_release);
  }
  return Loc{Index};
}

void Heap::save(Snapshot &Out) const {
  uint32_t N = Count.load(std::memory_order_acquire);
  Out.Structs.resize(N);
  Out.RefCounts.resize(N);
  Out.Fields.clear();
  for (uint32_t Index = 0; Index < N; ++Index) {
    const Object &O = Blocks[Index >> BlockShift][Index & (BlockSize - 1)];
    Out.Structs[Index] = O.Struct;
    Out.RefCounts[Index] = O.StoredRefCount;
    Out.Fields.insert(Out.Fields.end(), O.Fields.begin(), O.Fields.end());
  }
}

void Heap::restore(const Snapshot &In) {
  std::lock_guard<std::mutex> Lock(AllocMutex);
  uint32_t Old = Count.load(std::memory_order_relaxed);
  uint32_t N = static_cast<uint32_t>(In.Structs.size());
  for (uint32_t Index = N; Index < Old; ++Index)
    Blocks[Index >> BlockShift][Index & (BlockSize - 1)].~Object();
  const Value *Next = In.Fields.data();
  for (uint32_t Index = 0; Index < N; ++Index) {
    Object &O = Index < Old
                    ? Blocks[Index >> BlockShift][Index & (BlockSize - 1)]
                    : construct(Index);
    O.Struct = In.Structs[Index];
    O.StoredRefCount = In.RefCounts[Index];
    size_t NumFields = O.Struct->Fields.size();
    O.Fields.assign(Next, Next + NumFields);
    Next += NumFields;
  }
  Count.store(N, std::memory_order_release);
}

void Heap::setField(Loc L, uint32_t FieldIndex, const Value &V) {
  Object &O = get(L);
  if (FieldIndex >= O.Fields.size())
    fieldFault(L, FieldIndex);
  bool Iso = O.Struct->Fields[FieldIndex].Iso;
  if (!Iso) {
    const Value &Old = O.Fields[FieldIndex];
    if (Old.isLoc()) {
      Object &OldTarget = get(Old.asLoc());
      assert(OldTarget.StoredRefCount > 0 && "refcount underflow");
      --OldTarget.StoredRefCount;
    }
    if (V.isLoc())
      ++get(V.asLoc()).StoredRefCount;
  }
  O.Fields[FieldIndex] = V;
}

std::vector<Loc> Heap::liveSet(Loc Root) const {
  std::vector<Loc> Out;
  thread_local EpochSet Seen;
  liveSetInto(Root, Out, Seen);
  return Out;
}

void Heap::liveSetInto(Loc Root, std::vector<Loc> &Out,
                       EpochSet &Seen) const {
  Out.clear();
  if (!Root.isValid())
    return;
  (void)get(Root); // validate before sizing the scratch by the root
  Seen.begin(size());
  Seen.insert(Root.Index);
  Out.push_back(Root);
  // Out doubles as the FIFO worklist: everything before Head is expanded,
  // everything after is pending, and the whole vector is the result.
  for (size_t Head = 0; Head < Out.size(); ++Head) {
    const Object &O = get(Out[Head]);
    for (const Value &V : O.Fields) {
      if (!V.isLoc())
        continue;
      if (Seen.insert(V.asLoc().Index))
        Out.push_back(V.asLoc());
    }
  }
}

std::vector<uint32_t> Heap::recomputeRefCounts() const {
  std::vector<uint32_t> Counts(size(), 0);
  for (uint32_t Index = 0; Index < Counts.size(); ++Index) {
    const Object &O = get(Loc{Index});
    for (const FieldInfo &F : O.Struct->Fields)
      if (!F.Iso && O.Fields[F.Index].isLoc())
        ++Counts[O.Fields[F.Index].asLoc().Index];
  }
  return Counts;
}

//===- runtime/Heap.h - The shared object heap ------------------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The store h of the small-step semantics: a table of struct objects with
/// field slots. The heap additionally maintains the *stored reference
/// counts* of §5.2: per object, the number of immediate heap references
/// held in non-iso fields. The count is updated only on field assignment
/// (never on variable binds, calls, or sends), making it far cheaper than
/// a conventional reference count; `if disconnected` compares it against a
/// traversal count to decide disconnection without exploring the larger
/// side.
///
/// Storage is chunked with a fixed-size block directory so object
/// references stay stable under concurrent allocation: the parallel
/// executor lets threads touch disjoint reservations without locks
/// (that is the point of fearless concurrency); only allocation takes a
/// mutex. A heap costs only what it holds: the directory is left
/// uninitialized (allocation is sequential, so entry b is written when
/// object b·BlockSize is allocated), blocks are raw storage, each Object
/// is constructed by allocate(), and teardown destroys only [0, size()).
///
/// Regions do not exist at run time: a runtime "region" is a connected
/// component of the non-iso reference relation.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_RUNTIME_HEAP_H
#define FEARLESS_RUNTIME_HEAP_H

#include "runtime/Scratch.h"
#include "runtime/Value.h"
#include "sema/StructTable.h"

#include <atomic>
#include <cassert>
#include <memory>
#include <mutex>
#include <vector>

namespace fearless {

/// One allocated struct instance.
struct Object {
  const StructInfo *Struct = nullptr;
  std::vector<Value> Fields;
  /// Number of non-iso heap fields (anywhere) currently referencing this
  /// object (§5.2). Maintained by Heap::setField.
  uint32_t StoredRefCount = 0;
};

/// The shared store.
class Heap {
public:
  /// Objects per storage block (the directory granularity).
  static constexpr uint32_t BlockShift = 12;
  static constexpr uint32_t BlockSize = 1u << BlockShift;

  explicit Heap(const StructTable &Structs,
                size_t MaxObjects = size_t(1) << 26);
  ~Heap();
  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;

  /// Allocates an instance of \p StructName with default field values:
  /// maybe fields none, primitives zero/false/unit, and non-maybe non-iso
  /// same-struct fields a self-reference (the size-1 circular list shape
  /// of Fig. 3). Thread-safe. Returns Loc::invalid() when the heap is
  /// exhausted or the struct is unknown — callers surface a diagnostic
  /// instead of writing out of bounds.
  Loc allocate(Symbol StructName);

  /// Accessors bound-check in release builds too: an out-of-range
  /// location raises a structured RuntimeFault (thrown to the owning
  /// executor in release builds, loud abort in debug — see
  /// runtime/RuntimeFault.h) rather than silently reading or writing
  /// foreign memory.
  Object &get(Loc L) {
    if (!L.isValid() || L.Index >= size())
      heapFault(L);
    return Blocks[L.Index >> BlockShift][L.Index & (BlockSize - 1)];
  }
  const Object &get(Loc L) const {
    if (!L.isValid() || L.Index >= size())
      heapFault(L);
    return Blocks[L.Index >> BlockShift][L.Index & (BlockSize - 1)];
  }

  /// Writes field \p FieldIndex of \p L, maintaining stored reference
  /// counts for non-iso location fields. Like get(), the field index is
  /// validated in release builds too (fieldFault aborts with a
  /// diagnostic instead of indexing foreign memory).
  void setField(Loc L, uint32_t FieldIndex, const Value &V);

  /// Reads a field (release-build bound-checked, see setField).
  const Value &getField(Loc L, uint32_t FieldIndex) const {
    const Object &O = get(L);
    if (FieldIndex >= O.Fields.size())
      fieldFault(L, FieldIndex);
    return O.Fields[FieldIndex];
  }

  size_t size() const { return Count.load(std::memory_order_acquire); }
  /// Maximum number of objects this heap can ever hold.
  size_t capacity() const { return size_t(MaxBlocks) * BlockSize; }
  const StructTable &structs() const { return Structs; }

  /// Collects every location reachable from \p Root following *all*
  /// fields (the live-set of Fig. 15, used by send).
  std::vector<Loc> liveSet(Loc Root) const;

  /// Allocation-free liveSet: appends the live-set into \p Out (cleared
  /// first, capacity reused) using \p Seen as the visited set. Out doubles
  /// as the BFS worklist, so steady-state sends allocate nothing once the
  /// buffers have grown to the transferred graph's size.
  void liveSetInto(Loc Root, std::vector<Loc> &Out, EpochSet &Seen) const;

  /// Recomputes the stored reference count of every object from scratch;
  /// used by the invariant validators.
  std::vector<uint32_t> recomputeRefCounts() const;

  /// A copy of objects [0, size()) in flat arrays (the Fields of object
  /// i are the next Structs[i]->Fields.size() entries of Fields), so a
  /// reused snapshot is refilled without allocating.
  struct Snapshot {
    std::vector<const StructInfo *> Structs;
    std::vector<uint32_t> RefCounts;
    std::vector<Value> Fields;
  };
  /// Fills \p Out with the current objects (capacity reused).
  void save(Snapshot &Out) const;
  /// Makes the heap hold exactly the objects of \p In: objects past its
  /// size are destroyed, missing ones constructed, the rest overwritten.
  /// Not thread-safe: the owner must be the only one touching the heap.
  void restore(const Snapshot &In);

private:
  /// Raises an invalid-heap-access RuntimeFault; never returns (throws
  /// in release builds, aborts in debug). Kept out of line so the
  /// accessors stay small.
  [[noreturn]] void heapFault(Loc L) const;
  /// Raises an out-of-range field-index RuntimeFault on \p L.
  [[noreturn]] void fieldFault(Loc L, uint32_t FieldIndex) const;

  /// Constructs a default Object at \p Index == size(), allocating its
  /// block first when \p Index starts one. Caller holds AllocMutex (or
  /// owns the heap exclusively) and publishes Count afterwards.
  Object &construct(uint32_t Index);

  const StructTable &Structs;
  uint32_t MaxBlocks = 0;
  /// Block directory, sized up-front so the pointer array never moves,
  /// and left uninitialized: entry b is valid iff b < NumBlocks.
  std::unique_ptr<Object *[]> Blocks;
  /// Blocks allocated so far (guarded by AllocMutex). Blocks outlive a
  /// restore() that shrinks below them, so construct() reuses them.
  uint32_t NumBlocks = 0;
  /// Published with release after the object (and its directory entry)
  /// is written, so get() reads both lock-free under acquire.
  std::atomic<uint32_t> Count{0};
  std::mutex AllocMutex;
};

} // namespace fearless

#endif // FEARLESS_RUNTIME_HEAP_H

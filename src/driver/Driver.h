//===- driver/Driver.h - Sample programs ------------------------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The surface-language sample programs shared by tests, examples, and
/// benchmarks: the paper's singly and doubly linked lists (Figs. 1, 2, 5,
/// 14), the broken Fig. 4 variant (which must be rejected), a red-black
/// tree (the appendix's flagship example), and message-passing pipelines.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_DRIVER_DRIVER_H
#define FEARLESS_DRIVER_DRIVER_H

namespace fearless {

/// Sample surface programs.
namespace programs {

/// Fig. 1 sll + a full suite: construction, push/pop, remove_tail
/// (Fig. 2), concat (Fig. 14), length, sum, nth lookup.
extern const char *SllSuite;

/// Fig. 1 circular dll + suite: construction, push_front, remove_tail
/// (Fig. 5, with `if disconnected`), get_nth_node (Fig. 14), length.
extern const char *DllSuite;

/// Fig. 4: the broken dll remove_tail (no disconnection check). The
/// checker must reject it — the returned payload is not dominating for
/// size-1 lists.
extern const char *DllBrokenRemoveTail;

/// A red-black tree with iso payloads and intra-region parent pointers:
/// insert with rotations/recoloring, lookup, min, size, height, and an
/// invariant validator — the appendix's flagship data structure.
extern const char *RedBlackTree;

/// Producer/consumer pipelines over send/recv: single items and whole
/// list segments (fearless concurrency, §7).
extern const char *MessagePassing;

/// A binary trie keyed on integer bits where *every child edge is iso*:
/// a tree of regions (one region per node), the opposite discipline from
/// the red-black tree's single-region spine. Insert/lookup/count/depth.
extern const char *BitTrie;

/// Further algorithmic code in the spirit of §8's "thousands of lines":
/// in-place list reversal, insertion sort, and a two-ended queue, all on
/// recursively linear spines. Includes the domination-driven idiom of
/// breaking a node's links (`n.next = none`) before handing it to a
/// function that expects a dominating argument.
extern const char *Extras;

} // namespace programs

} // namespace fearless

#endif // FEARLESS_DRIVER_DRIVER_H

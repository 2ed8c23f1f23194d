//===- examples/regions_tour.cpp ------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// A tour of the two region disciplines the type system unifies (§1):
//
//  - trees of regions (every edge iso): the bit-trie, where any subtree
//    can be detached and sent to another thread in one step because its
//    root edge dominates it;
//  - regions as free-form object soups (plain fields): the two-stack
//    queue, where intra-region aliasing is unrestricted and `reverse`
//    rebuilds the spine in place.
//
//===----------------------------------------------------------------------===//

#include "driver/CompilePipeline.h"
#include "runtime/Machine.h"

#include <cstdio>

using namespace fearless;

int main() {
  // --- Tree of regions: the bit-trie --------------------------------------
  {
    std::string Source = std::string(programs::BitTrie) + R"prog(
def giver(n : int) : int {
  let t = trie_new();
  let i = 0;
  while (i < n) {
    trie_insert(t, i * 2, i);       // even keys -> zero subtree
    trie_insert(t, i * 2 + 1, i);   // odd keys  -> one subtree
    i = i + 1
  };
  let sent = trie_send_zero_subtree(t);
  if (sent) { trie_count(t) } else { -1 }
}
)prog";
    auto Built = buildArtifact(Source);
    if (!Built) {
      std::printf("trie failed to check: %s\n",
                  Built.error().render().c_str());
      return 1;
    }
    const Pipeline &P = (*Built)->P;
    Machine M(P.Checked);
    M.spawn(P.Prog->Names.intern("giver"), {Value::intVal(50)});
    M.spawn(P.Prog->Names.intern("trie_recv_counter"), {});
    Expected<MachineSummary> R = M.run();
    if (!R) {
      std::printf("trie runtime error: %s\n", R.error().render().c_str());
      return 1;
    }
    std::printf("bit-trie: kept %lld odd keys, sent a subtree of %lld "
                "even keys to another thread in one send\n",
                static_cast<long long>(R->ThreadResults[0].asInt()),
                static_cast<long long>(R->ThreadResults[1].asInt()));
  }

  // --- Region soup: the two-stack queue ------------------------------------
  {
    std::string Source = std::string(programs::Extras) + R"prog(
def drive(n : int) : int {
  let q = queue_new();
  let i = 0;
  while (i < n) {
    let p = new data(i) in { enqueue(q, p) };
    i = i + 1
  };
  queue_drain_sum(q)
}
)prog";
    auto Built = buildArtifact(Source);
    if (!Built) {
      std::printf("queue failed to check: %s\n",
                  Built.error().render().c_str());
      return 1;
    }
    const Pipeline &P = (*Built)->P;
    Machine M(P.Checked);
    M.spawn(P.Prog->Names.intern("drive"), {Value::intVal(100)});
    Expected<MachineSummary> R = M.run();
    if (!R) {
      std::printf("queue runtime error: %s\n",
                  R.error().render().c_str());
      return 1;
    }
    std::printf("two-stack queue: drained 100 items in FIFO order, "
                "sum = %lld (in-place reversal included)\n",
                static_cast<long long>(R->ThreadResults[0].asInt()));
  }

  // --- Signatures at the boundary ------------------------------------------
  {
    auto Built = buildArtifact(programs::BitTrie);
    if (!Built)
      return 1;
    const Pipeline &P = (*Built)->P;
    Symbol Insert = P.Prog->Names.intern("node_insert");
    std::printf("\nnode_insert : %s\n",
                toString(P.Checked.Signatures.at(Insert),
                         P.Prog->Names)
                    .c_str());
    std::printf("(each parameter in its own region; no annotations "
                "needed anywhere in the trie)\n");
  }
  return 0;
}

#ifndef PITREE_PITREE_DESCENT_H_
#define PITREE_PITREE_DESCENT_H_

// The one Π-tree traversal kernel (DESIGN.md §17). The B-link tree, the
// TSB-tree and the hB-style multi-attribute tree differ only in how a node
// routes a search (paper §1, claim 6); the walk itself — latch coupling,
// side hops, child steps, the target-level latch upgrade, and the
// version-coupled optimistic copy-out — is written once, here, and
// parameterised by a small node-format policy:
//
//   bool   Covers(const NodeRef& n) const;   // n is responsible for the key
//   Step   Route(const NodeRef& n, uint8_t target_level) const;
//   Answer Resolve(const NodeRef& n, std::string* value) const;  // reads only
//
// Route runs on a node that Covers the key; Resolve on the target node (and
// on every node a history hop reaches). Policies are pure functions of the
// node image: no latching, no I/O, no blocking.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "pitree/node_page.h"
#include "pitree/path.h"
#include "storage/buffer_pool.h"
#include "storage/latch.h"

namespace pitree {

/// Acquires `latch` in `mode` — the one mode-dispatched latch acquire.
void AcquireMode(Latch& latch, LatchMode mode);

/// One routing decision a policy makes on a node.
struct Step {
  enum class Kind : uint8_t {
    kHere,     // the node is at the target level and directly contains key
    kSide,     // delegated: hop to sibling `page` on the same level
    kChild,    // index node above the target level: descend to `page`
    kCorrupt,  // malformed node; `why` says how
  };
  Kind kind;
  PageId page = kInvalidPageId;
  const char* why = "";

  static Step Here() { return {Kind::kHere}; }
  static Step Side(PageId p) { return {Kind::kSide, p}; }
  static Step Child(PageId p) { return {Kind::kChild, p}; }
  static Step Corrupt(const char* why) {
    return {Kind::kCorrupt, kInvalidPageId, why};
  }
};

/// A read's outcome at the target: answered with `status`, or — when `hop`
/// is valid — the answer lies behind a history pointer (TSB-tree, Fig. 1).
struct Answer {
  Status status;
  PageId hop = kInvalidPageId;
};

/// A crossed side pointer: the split of `from` into `to` at `level` may
/// still lack its index term (§5.1), so the caller may schedule a posting.
struct SideHop {
  uint8_t level;
  PageId from;
  PageId to;
};

/// Where a descent counts its hops; null counters are not counted.
struct HopCounters {
  std::atomic<uint64_t>* side = nullptr;
  std::atomic<uint64_t>* history = nullptr;
};

/// The B-link policy (§2.2.1): one sibling term — (high key, right
/// sibling) — per node, and child choice by the rightmost separator at or
/// below the key (§3.1). The TSB-tree routes its current nodes with it on
/// composite keys.
struct BlinkPolicy {
  Slice key;

  bool Covers(const NodeRef& node) const { return node.AtOrAboveLow(key); }

  Step Route(const NodeRef& node, uint8_t target_level) const {
    if (!node.BelowHigh(key)) {
      PageId next = node.right_sibling();
      if (next == kInvalidPageId) {
        return Step::Corrupt("side chain ended before covering key");
      }
      return Step::Side(next);
    }
    if (node.level() == target_level) return Step::Here();
    int slot = node.FindChildSlot(key);
    if (slot < 0) return Step::Corrupt("index node lacks a child covering key");
    IndexTerm term;
    if (!DecodeIndexTerm(node.EntryValue(slot), &term)) {
      return Step::Corrupt("bad index term");
    }
    return Step::Child(term.child);
  }

  Answer Resolve(const NodeRef& leaf, std::string* value) const {
    bool found = false;
    int slot = leaf.FindSlot(key, &found);
    if (!found) return {Status::NotFound("key absent")};
    if (value != nullptr) *value = leaf.EntryValue(slot).ToString();
    return {Status::OK()};
  }
};

/// In/out state of a latched descent.
struct Descent {
  // -- inputs --------------------------------------------------------------
  uint8_t target_level = 0;
  LatchMode target_mode = LatchMode::kShared;
  /// §5.2: latch coupling (CP) vs. single-latch traversal (CNS).
  bool couple = true;
  /// §5.2.2(a) saved path: at a node whose state identifier still matches
  /// its entry, the remembered child is trusted instead of re-searched.
  const SavedPath* trusted = nullptr;
  HopCounters counters;
  /// Output when non-null: the nodes that directly contained the key, with
  /// their state ids, top-down.
  SavedPath* path = nullptr;

  // -- in/out --------------------------------------------------------------
  /// In: an optional start node already latched in `mode` (a saved-path
  /// start); otherwise the descent starts at the root. Out: the target node,
  /// latched in `target_mode`.
  PageHandle node;
  LatchMode mode = LatchMode::kShared;

  // -- outputs -------------------------------------------------------------
  std::vector<SideHop> side_hops;  // side pointers crossed
  uint64_t trusted_hits = 0;       // children taken from `trusted`
};

/// Latched form: walks from `d->node` (or the root) to the node at
/// `d->target_level` that directly contains the policy's key, S-latching
/// above the target and taking `target_mode` at it, coupling latches per
/// `d->couple`. A node reached in the wrong mode is re-latched and
/// revalidated by its state id. On any error every latch is released and
/// `d->node` is empty. NotFound: the tree is below the target level. Busy:
/// the node changed under a re-latch and no longer covers the key.
template <class Policy>
Status LatchedDescend(BufferPool* pool, PageId root, const Policy& policy,
                      Descent* d);

/// Latched read at the target: resolves the policy's answer on the
/// S-latched `node`, following history hops with S coupling. Consumes
/// `node` (its latch is released on every path).
template <class Policy>
Status ResolveLatched(BufferPool* pool, const Policy& policy, PageHandle node,
                      std::string* value,
                      std::atomic<uint64_t>* history_hops);

/// Outputs of an optimistic read that settled.
struct OptimisticTrace {
  std::vector<SideHop> side_hops;     // side pointers crossed
  PageId target = kInvalidPageId;     // the node that answered
  /// The answering node's validated image, in thread-local scratch: valid
  /// until this thread's next optimistic read.
  char* image = nullptr;
};

/// Optimistic form (DESIGN.md §15): root-to-leaf, then along history hops,
/// on validated page copies under an epoch guard, never latching, pinning
/// or blocking. Each hop is version-coupled — the next page's window opens
/// before the current page is revalidated. Bounded retries; Busy when the
/// optimistic regime cannot settle and the caller must take the latched
/// path.
template <class Policy>
Status OptimisticGet(BufferPool* pool, PageId root, const Policy& policy,
                     std::string* value, const HopCounters& counters,
                     OptimisticTrace* trace);

}  // namespace pitree

#endif  // PITREE_PITREE_DESCENT_H_

// lint:latch-helper
// The Π-tree traversal kernel (DESIGN.md §17): the one latched descent and
// the one optimistic descent every tree instance runs, explicitly
// instantiated below for the B-link, TSB and multi-attribute policies so
// each policy's routing inlines into its own copy of the loop.

#include "pitree/descent.h"

#include <memory>

#include "analysis/latch_checker.h"
#include "common/thread_annotations.h"
#include "mdtree/md_tree.h"
#include "storage/epoch.h"
#include "tsb/tsb_tree.h"

namespace pitree {

// lint:tsa-escape -- mode-dispatched acquire: which capability kind is
// taken is a runtime value clang cannot model; call sites are checked
// dynamically (src/analysis/) and by tools/analyze.
void AcquireMode(Latch& latch, LatchMode mode) NO_THREAD_SAFETY_ANALYSIS {
  switch (mode) {
    case LatchMode::kShared:
      latch.AcquireS();
      break;
    case LatchMode::kUpdate:
      latch.AcquireU();
      break;
    case LatchMode::kExclusive:
      latch.AcquireX();
      break;
  }
}

namespace {

/// S above the target level, the requested mode at it.
LatchMode ModeAt(const Descent& d, uint8_t level) {
  return level == d.target_level ? d.target_mode : LatchMode::kShared;
}

/// §5.2.2(a): the child `path` remembers below the node `cur` at `level`,
/// provided cur's state identifier is unchanged since the path was saved.
PageId TrustedChild(const SavedPath& path, const PageHandle& cur,
                    uint8_t level) {
  const std::vector<PathEntry>& n = path.nodes;
  for (size_t i = 0; i + 1 < n.size(); ++i) {
    if (n[i].page == cur.id() && n[i].state_id == cur.page_lsn() &&
        n[i + 1].level + 1 == level) {
      return n[i + 1].page;
    }
  }
  return kInvalidPageId;
}

}  // namespace

// lint:tsa-escape -- hands the latched target page to the caller (§4.1
// crabbing); the protocol is enforced by the runtime checker and
// tools/analyze, not the intraprocedural static analysis.
template <class Policy>
Status LatchedDescend(BufferPool* pool, PageId root, const Policy& policy,
                      Descent* d) NO_THREAD_SAFETY_ANALYSIS {
  PageHandle& cur = d->node;
  if (!cur.valid()) {
    PITREE_RETURN_IF_ERROR(pool->FetchPage(root, &cur));
    d->mode = LatchMode::kShared;
    cur.latch().AcquireS();
    analysis::NoteTreeLevel(&cur.latch(), NodeRef(cur.data()).level());
  }
  // From here on `cur` is latched; PageHandle's destructor only unpins, so
  // every error exit must release the latch itself.
  auto fail = [&](Status s) {
    cur.latch().Release(d->mode);
    cur.Reset();
    return s;
  };
  for (;;) {
    // A page that is not a tree node means structural damage (e.g. a side
    // pointer read out of a torn page): surface it instead of wandering
    // through bytes that reinterpret as arbitrary pointers.
    if (PageGetType(cur.data()) != PageType::kTreeNode) {
      return fail(Status::Corruption("page " + std::to_string(cur.id()) +
                                     " is not a tree node"));
    }
    NodeRef node(cur.data());
    if (node.level() < d->target_level) {
      return fail(Status::NotFound("tree is below the target level"));
    }
    const LatchMode want = ModeAt(*d, node.level());
    if (d->mode != want) {
      // Reached in the wrong mode — the root, whose level can change under
      // a root grow, or a saved-path start. Re-latch, then revalidate by
      // state id: an unchanged page needs no second look.
      const Lsn seen = cur.page_lsn();
      cur.latch().Release(d->mode);
      AcquireMode(cur.latch(), want);
      d->mode = want;
      analysis::NoteTreeLevel(&cur.latch(), node.level());
      if (cur.page_lsn() != seen) {
        if (node.is_deallocated() || !policy.Covers(node)) {
          return fail(Status::Busy("node changed during latch upgrade"));
        }
        continue;  // re-route under the new latch
      }
    }
    const Step step = policy.Route(node, d->target_level);
    if (step.kind == Step::Kind::kCorrupt) {
      return fail(Status::Corruption(step.why));
    }
    if (step.kind != Step::Kind::kSide && d->path != nullptr) {
      d->path->Push(cur.id(), cur.page_lsn(), node.level());
    }
    if (step.kind == Step::Kind::kHere) return Status::OK();

    PageId next_pid = step.page;
    uint8_t next_level = node.level();
    if (step.kind == Step::Kind::kSide) {
      // Crossing a side pointer exposes a possibly-unposted split (§5.1).
      if (d->counters.side != nullptr) {
        d->counters.side->fetch_add(1, std::memory_order_relaxed);
      }
      d->side_hops.push_back({node.level(), cur.id(), next_pid});
    } else {
      --next_level;
      if (d->trusted != nullptr) {
        PageId trusted = TrustedChild(*d->trusted, cur, node.level());
        if (trusted != kInvalidPageId) {
          next_pid = trusted;
          ++d->trusted_hits;
        }
      }
    }
    PageHandle next;
    // §4.1 crabbing: the next node is fetched (a pool miss reads it from
    // disk) while the current node's latch is held; latches tolerate I/O
    // waits by design.
    // analyze:allow-latch-io -- crabbing sibling/child fetch under latch
    Status s = pool->FetchPage(next_pid, &next);
    if (!s.ok()) return fail(s);
    const LatchMode next_mode = ModeAt(*d, next_level);
    if (d->couple) {
      AcquireMode(next.latch(), next_mode);
      cur.latch().Release(d->mode);
    } else {
      cur.latch().Release(d->mode);
      AcquireMode(next.latch(), next_mode);
    }
    analysis::NoteTreeLevel(&next.latch(), next_level);
    cur = std::move(next);
    d->mode = next_mode;
  }
}

// lint:tsa-escape -- consumes the S-latched page the descent handed over
// and couples along history hops; checked by the runtime checker and
// tools/analyze.
template <class Policy>
Status ResolveLatched(BufferPool* pool, const Policy& policy, PageHandle cur,
                      std::string* value,
                      std::atomic<uint64_t>* history_hops)
    NO_THREAD_SAFETY_ANALYSIS {
  for (;;) {
    NodeRef node(cur.data());
    Answer answer = policy.Resolve(node, value);
    if (answer.hop == kInvalidPageId) {
      cur.latch().ReleaseS();
      return answer.status;
    }
    PageHandle next;
    // Fetched under the current node's S latch (coupling).
    Status s = pool->FetchPage(answer.hop, &next);
    if (!s.ok()) {
      cur.latch().ReleaseS();
      return s;
    }
    if (history_hops != nullptr) {
      history_hops->fetch_add(1, std::memory_order_relaxed);
    }
    next.latch().AcquireS();
    cur.latch().ReleaseS();
    cur = std::move(next);
  }
}

namespace {

/// Attempts before an optimistic read gives up. Each attempt restarts from
/// the root, so retrying past a few failures only delays the latched path,
/// which always makes progress.
constexpr int kOptimisticRetries = 3;
/// Hops per attempt (child steps, side hops and history hops). The latched
/// descent needs no bound — latches guarantee progress — but a validated
/// copy chain can in principle chase a moving frontier forever.
constexpr int kOptimisticHopLimit = 64;

/// Per-thread page image for copy-out reads. One page suffices: a hop
/// fully consumes the current copy (extracts the next PageId) before the
/// next page is copied over it.
char* OptimisticScratch() {
  static thread_local std::unique_ptr<char[]> buf(new char[kPageSize]);
  return buf.get();
}

/// One epoch-guarded attempt of OptimisticGet.
template <class Policy>
Status OptimisticOnce(BufferPool* pool, PageId root, const Policy& policy,
                      std::string* value, const HopCounters& counters,
                      OptimisticTrace* trace) {
  char* buf = OptimisticScratch();
  trace->side_hops.clear();
  EpochGuard epoch;
  if (!epoch.active()) return Status::Busy("epoch slots exhausted");
  OptimisticPage cur;
  if (!pool->FetchOptimistic(root, &cur) || !pool->ReadConsistent(cur, buf)) {
    return Status::Busy("root not optimistically readable");
  }
  bool at_target = false;
  for (int hop = 0;; ++hop) {
    if (hop >= kOptimisticHopLimit) {
      return Status::Busy("optimistic hop limit exceeded");
    }
    // The copy is validated (a real page state), but the route to it may
    // be stale; any structural surprise aborts to the latched path rather
    // than reasoning about it latch-free.
    if (PageGetType(buf) != PageType::kTreeNode) {
      return Status::Busy("optimistic copy is not a tree node");
    }
    NodeRef node(buf);
    if (node.is_deallocated()) {
      return Status::Busy("optimistic copy is deallocated");
    }
    PageId next = kInvalidPageId;
    if (!at_target) {
      if (!policy.Covers(node)) {
        return Status::Busy("optimistic copy does not cover key");
      }
      const Step step = policy.Route(node, /*target_level=*/0);
      switch (step.kind) {
        case Step::Kind::kSide:
          if (counters.side != nullptr) {
            counters.side->fetch_add(1, std::memory_order_relaxed);
          }
          trace->side_hops.push_back({node.level(), cur.id(), step.page});
          next = step.page;
          break;
        case Step::Kind::kChild:
          next = step.page;
          break;
        case Step::Kind::kHere:
          at_target = true;
          break;
        case Step::Kind::kCorrupt:
          return Status::Busy(step.why);
      }
    }
    if (at_target) {
      Answer answer = policy.Resolve(node, value);
      if (answer.hop == kInvalidPageId) {
        trace->target = cur.id();
        trace->image = buf;
        return answer.status;
      }
      if (counters.history != nullptr) {
        counters.history->fetch_add(1, std::memory_order_relaxed);
      }
      next = answer.hop;
    }
    OptimisticPage nxt;
    if (!pool->FetchOptimistic(next, &nxt)) {
      return Status::Busy("next page not optimistically resident");
    }
    // Version coupling: the next page's window is open; if the pointer we
    // followed is still current, the windows overlap and the chain of
    // validated states is connected.
    if (!pool->Revalidate(cur)) {
      return Status::Busy("page changed while following its pointer");
    }
    if (!pool->ReadConsistent(nxt, buf)) {
      return Status::Busy("next page copy did not validate");
    }
    cur = nxt;
  }
}

}  // namespace

template <class Policy>
Status OptimisticGet(BufferPool* pool, PageId root, const Policy& policy,
                     std::string* value, const HopCounters& counters,
                     OptimisticTrace* trace) {
  for (int attempt = 0; attempt < kOptimisticRetries; ++attempt) {
    Status s = OptimisticOnce(pool, root, policy, value, counters, trace);
    if (!s.IsBusy()) return s;
  }
  return Status::Busy("optimistic read did not settle");
}

template Status LatchedDescend<BlinkPolicy>(BufferPool*, PageId,
                                            const BlinkPolicy&, Descent*);
template Status LatchedDescend<TsbPolicy>(BufferPool*, PageId,
                                          const TsbPolicy&, Descent*);
template Status LatchedDescend<MdPolicy>(BufferPool*, PageId, const MdPolicy&,
                                         Descent*);
template Status ResolveLatched<TsbPolicy>(BufferPool*, const TsbPolicy&,
                                          PageHandle, std::string*,
                                          std::atomic<uint64_t>*);
template Status OptimisticGet<BlinkPolicy>(BufferPool*, PageId,
                                           const BlinkPolicy&, std::string*,
                                           const HopCounters&,
                                           OptimisticTrace*);
template Status OptimisticGet<TsbPolicy>(BufferPool*, PageId, const TsbPolicy&,
                                         std::string*, const HopCounters&,
                                         OptimisticTrace*);

}  // namespace pitree

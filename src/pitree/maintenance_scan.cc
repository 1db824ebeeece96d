// lint:allow-naked-latch -- read-only S sweeps in root-to-leaf /
// left-to-right order; audited with the protocol checker.
// Background-maintenance scans over a live tree (MaintenanceService sweep
// tasks): an idle consolidation scanner that finds under-utilized nodes
// without waiting for a traversal to trip over them (§3.3), and an online
// auditor that checks the §2.1.3 well-formedness invariants along live
// root-to-leaf paths.
//
// Both walk under shared latches with parent->child / container->contained
// coupling (§4.1.1). Coupling matters for more than deadlock freedom: while
// the scan holds an S latch on a node, a consolidator cannot take the X
// latch it needs to absorb that node's sibling or child, so the next hop is
// always to a still-allocated node and the auditor never reports a false
// violation against in-flight structure changes.

#include <sstream>

#include "common/thread_annotations.h"
#include "pitree/pi_tree.h"

namespace pitree {

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status PiTree::SweepForConsolidation(size_t max_nodes, std::string* cursor,
                                     size_t* examined, size_t* scheduled)
    NO_THREAD_SAFETY_ANALYSIS {
  *examined = 0;
  *scheduled = 0;
  if (!ctx_->options.consolidation_enabled || max_nodes == 0) {
    return Status::OK();
  }

  OpCtx op;
  op.txn = nullptr;
  Slice start = cursor->empty() ? Slice("\0", 1) : Slice(*cursor);
  Descent d;
  PITREE_RETURN_IF_ERROR(Descend(&op, start, /*target_level=*/0,
                                   LatchMode::kShared, nullptr, &d));
  PageHandle cur = std::move(d.node);
  Status s;
  while (*examined < max_nodes) {
    NodeRef node(cur.data());
    ++*examined;
    MaybeScheduleConsolidate(&op, node, cur.id());
    if (node.high_is_pos_inf() || node.right_sibling() == kInvalidPageId) {
      cursor->clear();  // wrapped: the next sweep restarts at the leftmost
      break;
    }
    *cursor = node.high_key().ToString();
    PageHandle next;
    s = ctx_->pool->FetchPage(node.right_sibling(), &next);
    if (!s.ok()) break;
    next.latch().AcquireS();
    cur.latch().ReleaseS();
    cur = std::move(next);
  }
  cur.latch().ReleaseS();
  cur.Reset();
  *scheduled = op.pending.size();
  FlushPending(&op);
  return s;
}

namespace {

struct AuditCtx {
  std::ostringstream errors;
  int violations = 0;
};

void AuditFail(AuditCtx* a, PageId page, const std::string& what) {
  if (a->violations < 10) {
    a->errors << "node " << page << ": " << what << "\n";
  }
  ++a->violations;
}

/// Per-node invariants checkable from one latched page image: boundary
/// sanity (inv. 1), sibling-term presence iff the high boundary is finite
/// (inv. 2), intra-node ordering, and entry containment.
void AuditNode(AuditCtx* a, const NodeRef& node, PageId pid) {
  if (node.is_deallocated()) {
    AuditFail(a, pid, "deallocated node on a live path");
  }
  if (!node.low_is_neg_inf() && !node.high_is_pos_inf() &&
      node.low_key().compare(node.high_key()) >= 0) {
    AuditFail(a, pid, "empty responsibility subspace");
  }
  if (node.high_is_pos_inf() && node.right_sibling() != kInvalidPageId) {
    AuditFail(a, pid, "+inf high boundary with a sibling term");
  }
  if (!node.high_is_pos_inf() && node.right_sibling() == kInvalidPageId) {
    AuditFail(a, pid, "finite high boundary without a sibling term");
  }
  for (int i = 1; i < node.entry_count(); ++i) {
    if (node.EntryKey(i - 1).compare(node.EntryKey(i)) >= 0) {
      AuditFail(a, pid, "entries out of order");
      break;
    }
  }
  for (int i = 0; i < node.entry_count(); ++i) {
    Slice key = node.EntryKey(i);
    // Index nodes use the empty separator for -inf; it lives below any low.
    if (key.empty() && node.level() > 0) continue;
    if (!node.DirectlyContains(key)) {
      AuditFail(a, pid, node.level() == 0
                            ? "data record outside directly contained space"
                            : "index term separator outside node space");
      break;
    }
  }
}

}  // namespace

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status PiTree::AuditPath(const Slice& key, size_t* nodes_checked,
                         std::string* report) const NO_THREAD_SAFETY_ANALYSIS {
  *nodes_checked = 0;
  if (report != nullptr) report->clear();
  AuditCtx a;

  PageHandle cur;
  PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(root_, &cur));
  cur.latch().AcquireS();
  {
    // Invariant 6: an immortal root responsible for the entire space.
    NodeRef root(cur.data());
    if (!root.is_root()) AuditFail(&a, root_, "root flag missing");
    if (!root.low_is_neg_inf() || !root.high_is_pos_inf()) {
      AuditFail(&a, root_, "root does not cover the whole space");
    }
    if (root.right_sibling() != kInvalidPageId) {
      AuditFail(&a, root_, "root has a sibling term");
    }
  }

  int level = NodeRef(cur.data()).level();
  Status s;
  size_t hops = 0;
  while (a.violations == 0) {
    if (++hops > (1u << 16)) {
      AuditFail(&a, cur.id(), "path does not terminate");
      break;
    }
    NodeRef node(cur.data());
    ++*nodes_checked;
    if (PageGetType(cur.data()) != PageType::kTreeNode) {
      AuditFail(&a, cur.id(), "not a tree node page");
      break;
    }
    if (node.level() != level) {
      AuditFail(&a, cur.id(), "level mismatch on path");
      break;
    }
    AuditNode(&a, node, cur.id());
    if (a.violations > 0) break;

    if (!node.BelowHigh(key)) {
      // Key is delegated: follow the sibling term (inv. 2) and check that
      // the sibling picks up the space exactly at this node's high key.
      std::string high = node.high_key().ToString();
      PageHandle sib;
      // Sibling fetch under the container's S latch: the audit must see
      // the sibling while the high key it is checked against is pinned by
      // the held latch.
      // analyze:allow-latch-io -- audit sibling fetch under held S latch
      s = ctx_->pool->FetchPage(node.right_sibling(), &sib);
      if (!s.ok()) break;
      sib.latch().AcquireS();
      NodeRef snode(sib.data());
      if (snode.level() != level) {
        AuditFail(&a, sib.id(), "sibling level mismatch");
      } else if (snode.low_is_neg_inf() ||
                 snode.low_key().compare(Slice(high)) != 0) {
        AuditFail(&a, sib.id(), "sibling low does not match container high");
      }
      cur.latch().ReleaseS();
      cur = std::move(sib);
      continue;
    }

    if (level == 0) break;  // reached the data node containing key (inv. 5)

    // Invariant 4: the index terms (plus sibling term) cover the node's
    // space, so some term must cover key.
    if (node.entry_count() == 0) {
      AuditFail(&a, cur.id(), "index node with no index terms");
      break;
    }
    int slot = node.FindChildSlot(key);
    if (slot < 0) {
      AuditFail(&a, cur.id(), "gap: no index term at or below key");
      break;
    }
    IndexTerm term;
    if (!DecodeIndexTerm(node.EntryValue(slot), &term)) {
      AuditFail(&a, cur.id(), "undecodable index term");
      break;
    }
    Slice sep = node.EntryKey(slot);
    PageHandle ch;
    // Audit descends lock-coupled: the child fetch (possible disk read)
    // happens under the parent's S latch so the checked index term cannot
    // change mid-verification.
    // analyze:allow-latch-io -- lock-coupled audit child fetch
    s = ctx_->pool->FetchPage(term.child, &ch);
    if (!s.ok()) break;
    ch.latch().AcquireS();
    NodeRef child(ch.data());
    // Invariant 3: the referenced node is responsible for the described
    // subspace (child.low <= separator), one level down.
    if (PageGetType(ch.data()) != PageType::kTreeNode ||
        child.is_deallocated()) {
      AuditFail(&a, cur.id(), "index term references a non-node/freed page");
    } else if (child.level() != level - 1) {
      AuditFail(&a, cur.id(), "child level mismatch");
    } else if (sep.empty()) {
      if (!child.low_is_neg_inf()) {
        AuditFail(&a, cur.id(), "-inf term references child with finite low");
      }
    } else if (!child.low_is_neg_inf() && child.low_key().compare(sep) > 0) {
      AuditFail(&a, cur.id(), "child not responsible for index term space");
    }
    cur.latch().ReleaseS();
    cur = std::move(ch);
    --level;
  }
  cur.latch().ReleaseS();
  cur.Reset();

  PITREE_RETURN_IF_ERROR(s);
  if (a.violations > 0) {
    if (report != nullptr) {
      std::ostringstream out;
      out << a.violations << " violation(s) on path of key: " << a.errors.str();
      *report = out.str();
    }
    return Status::Corruption("live path violates well-formedness");
  }
  return Status::OK();
}

}  // namespace pitree

// lint:latch-helper
#include "common/thread_annotations.h"
#include "pitree/pi_tree.h"

#include "analysis/latch_checker.h"
#include "common/coding.h"
#include "engine/log_apply.h"
#include "txn/lock_manager.h"

namespace pitree {

// A node whose live payload falls below this percentage of usable space is
// a consolidation candidate (§3.3).
constexpr size_t kMinNodeUtilizationPct = 20;

PiTree::PiTree(EngineContext* ctx, PageId root) : SmoTree(ctx, root) {
  Configure({.root_terms = &BlinkPolicy::RootTerms,
             .side_traversals = &stats_.side_traversals,
             .splits = &stats_.splits,
             .root_grows = &stats_.root_grows,
             .posts_attempted = &stats_.posts_attempted,
             .posts_performed = &stats_.posts_performed,
             .posts_obsolete = &stats_.posts_obsolete,
             .in_txn_splits = &stats_.in_txn_splits,
             .page_undo = ctx->options.page_oriented_undo});
}

Status PiTree::Create(EngineContext* ctx, PageId root) {
  return FormatRoot(ctx, root,
                    NodeRef::FormatPayload(
                        /*level=*/0, kNodeFlagRoot,
                        kBoundLowNegInf | kBoundHighPosInf, Slice(), Slice(),
                        kInvalidPageId));
}

// ---------------------------------------------------------------------------
// Traversal
// ---------------------------------------------------------------------------

void PiTree::MaybeScheduleConsolidate(OpCtx* op, const NodeRef& node,
                                      PageId pid) {
  if (!ctx_->options.consolidation_enabled) return;
  if (node.is_root()) return;
  size_t usable = kPageSize - 48;
  if (node.UsedCellBytes() * 100 >= usable * kMinNodeUtilizationPct) {
    return;
  }
  CompletionJob job;
  job.kind = CompletionJob::Kind::kConsolidate;
  job.tree_root = root_;
  job.level = static_cast<uint8_t>(node.level() + 1);
  job.address = pid;
  job.key = node.low_is_neg_inf() ? std::string()
                                  : node.low_key().ToString();
  job.path = op->path;
  op->pending.push_back(std::move(job));
}

// lint:tsa-escape -- hands the latched start node to the descent (§4.1
// crabbing); the protocol is enforced by the runtime checker and
// tools/analyze, not the intraprocedural static analysis.
Status PiTree::StartFromSavedPath(const SavedPath& hint, Descent* d)
    NO_THREAD_SAFETY_ANALYSIS {
  if (ctx_->options.consolidation_enabled) {
    // §5.2.2 strategy (a): state ids say nothing about de-allocation, so
    // re-traversals start at the (immortal) root, trusting remembered
    // children only below nodes whose state ids still match.
    if (!ctx_->options.dealloc_is_node_update) return Status::OK();
    // §5.2.2 strategy (b): de-allocation bumps the state id, so a
    // remembered node whose state id is unchanged is guaranteed live.
    // Probe from the deepest entry upward.
    for (auto it = hint.nodes.rbegin(); it != hint.nodes.rend(); ++it) {
      if (it->level < d->target_level) continue;
      PageHandle probe;
      PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(it->page, &probe));
      LatchMode m = it->level == d->target_level ? d->target_mode
                                                 : LatchMode::kShared;
      AcquireMode(probe.latch(), m);
      if (probe.page_lsn() == it->state_id) {
        analysis::NoteTreeLevel(&probe.latch(), it->level);
        d->node = std::move(probe);
        d->mode = m;
        stats_.saved_path_hits.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      }
      probe.latch().Release(m);
      stats_.saved_path_misses.fetch_add(1, std::memory_order_relaxed);
    }
    return Status::OK();
  }
  // CNS invariant: nodes are immortal and responsibility never shrinks.
  // Start directly at the deepest remembered node at or above the target
  // level (§5.2.1: re-traversals start with the remembered parent).
  const PathEntry* best = nullptr;
  for (const auto& e : hint.nodes) {
    if (e.level >= d->target_level &&
        (best == nullptr || e.level < best->level)) {
      best = &e;
    }
  }
  if (best == nullptr) return Status::OK();
  PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(best->page, &d->node));
  d->mode = best->level == d->target_level ? d->target_mode
                                           : LatchMode::kShared;
  AcquireMode(d->node.latch(), d->mode);
  // CNS nodes are immortal and their level never changes, so the
  // remembered level is authoritative even for a stale hint.
  analysis::NoteTreeLevel(&d->node.latch(), best->level);
  stats_.saved_path_hits.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status PiTree::Descend(OpCtx* op, const Slice& key, uint8_t target_level,
                       LatchMode target_mode, const SavedPath* hint,
                       Descent* d) {
  op->path.Clear();
  d->target_level = target_level;
  d->target_mode = target_mode;
  d->couple = ctx_->options.consolidation_enabled;  // CP vs CNS, §5.2
  d->path = &op->path;
  if (hint != nullptr && !hint->nodes.empty()) {
    PITREE_RETURN_IF_ERROR(StartFromSavedPath(*hint, d));
    if (!d->node.valid()) d->trusted = hint;
  }
  Status s = Traverse(op, BlinkPolicy{key}, key, d);
  if (d->trusted_hits > 0) {
    stats_.saved_path_hits.fetch_add(d->trusted_hits,
                                     std::memory_order_relaxed);
  }
  return s;
}

Status PiTree::Search(OpCtx* op, const CompletionJob& job, Descent* d) {
  return Descend(op, job.key, job.level, LatchMode::kUpdate, &job.path, d);
}

// ---------------------------------------------------------------------------
// Record locking under the No-Wait Rule (§4.1.2)
// ---------------------------------------------------------------------------

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status PiTree::LockRecordNoWait(OpCtx* op, PageHandle* leaf, LatchMode mode,
                                const Slice& key, LockMode lock_mode,
                                bool* restart) NO_THREAD_SAFETY_ANALYSIS {
  *restart = false;
  if (op->txn == nullptr) return Status::OK();
  std::string name = RecordLockName(root_, key);
  Status s = ctx_->locks->Lock(op->txn, name, lock_mode, /*wait=*/false);
  if (s.ok()) return Status::OK();
  if (!s.IsBusy()) return s;

  // Conflict: release the latch before waiting so a lock holder that needs
  // this node can finish (otherwise: undetected latch-lock deadlock).
  Lsn seen = leaf->page_lsn();
  leaf->latch().Release(mode);
  s = ctx_->locks->Lock(op->txn, name, lock_mode, /*wait=*/true);
  if (!s.ok()) {
    // Deadlock victim (or failure): latch already dropped; caller aborts.
    leaf->Reset();
    return s;
  }
  AcquireMode(leaf->latch(), mode);
  if (leaf->page_lsn() == seen) return Status::OK();
  // State changed while we waited: anything may have happened (§5.2).
  leaf->latch().Release(mode);
  leaf->Reset();
  stats_.restarts.fetch_add(1, std::memory_order_relaxed);
  *restart = true;
  return Status::OK();
}

Status PiTree::ExecuteJob(const CompletionJob& job) {
  switch (job.kind) {
    case CompletionJob::Kind::kPostIndexTerm:
      return PostIndexTerm(BlinkPolicy{job.key}, job);
    case CompletionJob::Kind::kConsolidate:
      return Consolidate(job);
  }
  return Status::InvalidArgument("unknown job kind");
}

// ---------------------------------------------------------------------------
// Record operations
// ---------------------------------------------------------------------------

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status PiTree::Get(Transaction* txn, const Slice& key, std::string* value)
    NO_THREAD_SAFETY_ANALYSIS {
  if (key.empty()) return Status::InvalidArgument("empty key");
  // Lock-first 2PL (DESIGN.md §15): the record lock name is computable
  // without a descent, so the S lock is taken before any latch or epoch
  // section — no latches held, so the blocking wait is trivially
  // No-Wait-safe (§4.1.2). Once granted, no writer can change or move this
  // key's record, and the lock-manager handoff orders the last writer's
  // page updates before our copies. Both read paths below run under it.
  if (txn != nullptr) {
    PITREE_RETURN_IF_ERROR(ctx_->locks->Lock(
        txn, RecordLockName(root_, key), LockMode::kS, /*wait=*/true));
  }
  OpCtx op;
  op.txn = txn;
  BlinkPolicy policy{key};
  OptimisticTrace trace;
  Status s = OptimisticGet(ctx_->pool, root_, policy, value,
                           {&stats_.side_traversals}, &trace);
  if (!s.IsBusy()) {
    stats_.optimistic_gets.fetch_add(1, std::memory_order_relaxed);
    // The epoch is closed: schedule the hints a latched traversal would
    // have (§5.1 postings for crossed side pointers, §3.3 consolidation of
    // an under-utilized leaf); `trace.image` holds the validated leaf copy.
    ScheduleHops(&op, trace.side_hops, key);
    MaybeScheduleConsolidate(&op, NodeRef(trace.image), trace.target);
  } else {
    stats_.optimistic_fallbacks.fetch_add(1, std::memory_order_relaxed);
    Descent d;
    PITREE_RETURN_IF_ERROR(
        Descend(&op, key, /*target_level=*/0, LatchMode::kShared, nullptr, &d));
    NodeRef node(d.node.data());
    s = policy.Resolve(node, value).status;
    MaybeScheduleConsolidate(&op, node, d.node.id());
    d.node.latch().ReleaseS();
  }
  FlushPending(&op);
  return s;
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status PiTree::Scan(Transaction* txn, const Slice& start, size_t limit,
                    std::vector<NodeEntry>* out) NO_THREAD_SAFETY_ANALYSIS {
  out->clear();
  OpCtx op;
  op.txn = txn;
  Descent d;
  PITREE_RETURN_IF_ERROR(Descend(&op, start.empty() ? Slice("\0", 1) : start,
                                 0, LatchMode::kShared, nullptr, &d));
  PageHandle cur = std::move(d.node);
  const bool couple = ctx_->options.consolidation_enabled;
  std::string resume = start.ToString();
  while (out->size() < limit) {
    NodeRef node(cur.data());
    bool found;
    int slot = node.FindSlot(resume, &found);
    for (int i = slot; i < node.entry_count() && out->size() < limit; ++i) {
      out->push_back({node.EntryKey(i).ToString(),
                      node.EntryValue(i).ToString()});
    }
    if (out->size() >= limit || node.high_is_pos_inf()) break;
    resume = node.high_key().ToString();
    PageId next_pid = node.right_sibling();
    if (next_pid == kInvalidPageId) break;
    PageHandle next;
    Status s = ctx_->pool->FetchPage(next_pid, &next);
    if (!s.ok()) {
      cur.latch().ReleaseS();
      return s;
    }
    if (couple) {
      next.latch().AcquireS();
      cur.latch().ReleaseS();
    } else {
      cur.latch().ReleaseS();
      next.latch().AcquireS();
    }
    cur = std::move(next);
  }
  cur.latch().ReleaseS();
  cur.Reset();
  FlushPending(&op);
  return Status::OK();
}

Status PiTree::Insert(Transaction* txn, const Slice& key,
                      const Slice& value) {
  return InsertImpl(txn, key, value, /*allow_split=*/true);
}

Status PiTree::InsertNoSplit(Transaction* txn, const Slice& key,
                             const Slice& value) {
  return InsertImpl(txn, key, value, /*allow_split=*/false);
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status PiTree::InsertImpl(Transaction* txn, const Slice& key,
                          const Slice& value, bool allow_split)
    NO_THREAD_SAFETY_ANALYSIS {
  if (key.empty()) return Status::InvalidArgument("empty key");
  OpCtx op;
  op.txn = txn;
  Status result;
  for (;;) {
    Descent d;
    PITREE_RETURN_IF_ERROR(
        Descend(&op, key, 0, LatchMode::kUpdate, nullptr, &d));
    bool restart = false;
    // Page-oriented-undo regime: updaters declare themselves on the page
    // granule so move locks can exclude them (§4.2.2).
    if (ctx_->options.page_oriented_undo) {
      std::string pname = PageLockName(d.node.id());
      Status s = ctx_->locks->Lock(txn, pname, LockMode::kIU, false);
      if (s.IsBusy()) {
        Lsn seen = d.node.page_lsn();
        d.node.latch().ReleaseU();
        s = ctx_->locks->Lock(txn, pname, LockMode::kIU, true);
        if (!s.ok()) {
          FlushPending(&op);
          return s;
        }
        d.node.latch().AcquireU();
        if (d.node.page_lsn() != seen) {
          d.node.latch().ReleaseU();
          stats_.restarts.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
      } else if (!s.ok()) {
        FlushPending(&op);
        return s;
      }
    }
    Status s = LockRecordNoWait(&op, &d.node, LatchMode::kUpdate, key,
                                LockMode::kX, &restart);
    if (!s.ok()) {
      FlushPending(&op);
      return s;
    }
    if (restart) continue;

    NodeRef node(d.node.data());
    bool found = false;
    node.FindSlot(key, &found);
    if (found) {
      d.node.latch().ReleaseU();
      result = Status::InvalidArgument("key already exists");
      break;
    }
    if (!node.CanFit(key.size(), value.size())) {
      if (!allow_split) {
        d.node.latch().ReleaseU();
        FlushPending(&op);
        return Status::NoSpace("insert requires a structure change");
      }
      s = SplitForInsert(&op, &d.node, key);
      if (!s.ok()) {
        FlushPending(&op);
        return s;
      }
      stats_.restarts.fetch_add(1, std::memory_order_relaxed);
      continue;  // re-descend to the post-split leaf
    }
    d.node.latch().PromoteUToX();
    PageOp undo_op;
    std::string undo;
    if (ctx_->options.page_oriented_undo) {
      undo_op = PageOp::kNodeDelete;
      undo = NodeRef::DeletePayload(key);
    } else {
      undo_op = PageOp::kLogicalInsertUndo;
      undo = LogicalUndoPayload(root_, key, Slice());
    }
    s = LogAndApply(ctx_, txn, d.node, PageOp::kNodeInsert,
                    NodeRef::InsertPayload(key, value), undo_op,
                    std::move(undo));
    d.node.latch().ReleaseX();
    result = s;
    break;
  }
  FlushPending(&op);
  return result;
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status PiTree::Update(Transaction* txn, const Slice& key,
                      const Slice& value) NO_THREAD_SAFETY_ANALYSIS {
  if (key.empty()) return Status::InvalidArgument("empty key");
  OpCtx op;
  op.txn = txn;
  Status result;
  for (;;) {
    Descent d;
    PITREE_RETURN_IF_ERROR(
        Descend(&op, key, 0, LatchMode::kUpdate, nullptr, &d));
    bool restart = false;
    if (ctx_->options.page_oriented_undo) {
      Status s = ctx_->locks->Lock(txn, PageLockName(d.node.id()),
                                   LockMode::kIU, false);
      if (s.IsBusy()) {
        d.node.latch().ReleaseU();
        PITREE_RETURN_IF_ERROR(ctx_->locks->Lock(
            txn, PageLockName(d.node.id()), LockMode::kIU, true));
        stats_.restarts.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (!s.ok()) {
        FlushPending(&op);
        return s;
      }
    }
    Status s = LockRecordNoWait(&op, &d.node, LatchMode::kUpdate, key,
                                LockMode::kX, &restart);
    if (!s.ok()) {
      FlushPending(&op);
      return s;
    }
    if (restart) continue;

    NodeRef node(d.node.data());
    bool found = false;
    int slot = node.FindSlot(key, &found);
    if (!found) {
      d.node.latch().ReleaseU();
      result = Status::NotFound("key absent");
      break;
    }
    std::string old_value = node.EntryValue(slot).ToString();
    // In-place update may need more room for a longer value.
    if (value.size() > old_value.size() &&
        !node.CanFit(0, value.size() - old_value.size())) {
      s = SplitForInsert(&op, &d.node, key);
      if (!s.ok()) {
        FlushPending(&op);
        return s;
      }
      continue;
    }
    d.node.latch().PromoteUToX();
    PageOp undo_op;
    std::string undo;
    if (ctx_->options.page_oriented_undo) {
      undo_op = PageOp::kNodeUpdate;
      undo = NodeRef::UpdatePayload(key, old_value);
    } else {
      undo_op = PageOp::kLogicalUpdateUndo;
      undo = LogicalUndoPayload(root_, key, old_value);
    }
    s = LogAndApply(ctx_, txn, d.node, PageOp::kNodeUpdate,
                    NodeRef::UpdatePayload(key, value), undo_op,
                    std::move(undo));
    d.node.latch().ReleaseX();
    result = s;
    break;
  }
  FlushPending(&op);
  return result;
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status PiTree::Delete(Transaction* txn, const Slice& key)
    NO_THREAD_SAFETY_ANALYSIS {
  if (key.empty()) return Status::InvalidArgument("empty key");
  OpCtx op;
  op.txn = txn;
  Status result;
  for (;;) {
    Descent d;
    PITREE_RETURN_IF_ERROR(
        Descend(&op, key, 0, LatchMode::kUpdate, nullptr, &d));
    bool restart = false;
    if (ctx_->options.page_oriented_undo) {
      Status s = ctx_->locks->Lock(txn, PageLockName(d.node.id()),
                                   LockMode::kIU, false);
      if (s.IsBusy()) {
        d.node.latch().ReleaseU();
        PITREE_RETURN_IF_ERROR(ctx_->locks->Lock(
            txn, PageLockName(d.node.id()), LockMode::kIU, true));
        stats_.restarts.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (!s.ok()) {
        FlushPending(&op);
        return s;
      }
    }
    Status s = LockRecordNoWait(&op, &d.node, LatchMode::kUpdate, key,
                                LockMode::kX, &restart);
    if (!s.ok()) {
      FlushPending(&op);
      return s;
    }
    if (restart) continue;

    NodeRef node(d.node.data());
    bool found = false;
    int slot = node.FindSlot(key, &found);
    if (!found) {
      d.node.latch().ReleaseU();
      result = Status::NotFound("key absent");
      break;
    }
    std::string old_value = node.EntryValue(slot).ToString();
    d.node.latch().PromoteUToX();
    PageOp undo_op;
    std::string undo;
    if (ctx_->options.page_oriented_undo) {
      undo_op = PageOp::kNodeInsert;
      undo = NodeRef::InsertPayload(key, old_value);
    } else {
      undo_op = PageOp::kLogicalDeleteUndo;
      undo = LogicalUndoPayload(root_, key, old_value);
    }
    s = LogAndApply(ctx_, txn, d.node, PageOp::kNodeDelete,
                    NodeRef::DeletePayload(key), undo_op, std::move(undo));
    NodeRef after(d.node.data());
    MaybeScheduleConsolidate(&op, after, d.node.id());
    d.node.latch().ReleaseX();
    result = s;
    break;
  }
  FlushPending(&op);
  return result;
}

// ---------------------------------------------------------------------------
// Logical undo (§4.2, non-page-oriented recovery)
// ---------------------------------------------------------------------------

std::string PiTree::LogicalUndoPayload(PageId root, const Slice& key,
                                       const Slice& value) {
  std::string out;
  PutFixed32(&out, root);
  PutLengthPrefixedSlice(&out, key);
  PutLengthPrefixedSlice(&out, value);
  return out;
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status PiTree::LogicalUndo(Transaction* txn, PageOp undo_op,
                           const Slice& payload, Lsn undo_next)
    NO_THREAD_SAFETY_ANALYSIS {
  Slice in = payload;
  uint32_t root;
  Slice key, value;
  if (!GetFixed32(&in, &root) || !GetLengthPrefixedSlice(&in, &key) ||
      !GetLengthPrefixedSlice(&in, &value)) {
    return Status::Corruption("logical undo payload");
  }
  OpCtx op;
  op.txn = nullptr;  // no record locks: the undoing txn still owns its locks
  for (;;) {
    Descent d;
    PITREE_RETURN_IF_ERROR(
        Descend(&op, key, 0, LatchMode::kUpdate, nullptr, &d));
    NodeRef node(d.node.data());
    Status s;
    switch (undo_op) {
      case PageOp::kLogicalInsertUndo: {
        d.node.latch().PromoteUToX();
        s = LogAndApplyClr(ctx_, txn, d.node, PageOp::kNodeDelete,
                           NodeRef::DeletePayload(key), undo_next);
        break;
      }
      case PageOp::kLogicalDeleteUndo: {
        if (!node.CanFit(key.size(), value.size())) {
          // Re-insertion needs room: run an independent split action
          // (structure changes are legal during rollback, §4.2.1), then
          // retry the undo at the proper node.
          s = SplitForInsert(&op, &d.node, key);
          if (!s.ok()) {
            FlushPending(&op);
            return s;
          }
          continue;
        }
        d.node.latch().PromoteUToX();
        s = LogAndApplyClr(ctx_, txn, d.node, PageOp::kNodeInsert,
                           NodeRef::InsertPayload(key, value), undo_next);
        break;
      }
      case PageOp::kLogicalUpdateUndo: {
        d.node.latch().PromoteUToX();
        s = LogAndApplyClr(ctx_, txn, d.node, PageOp::kNodeUpdate,
                           NodeRef::UpdatePayload(key, value), undo_next);
        break;
      }
      default:
        d.node.latch().ReleaseU();
        return Status::InvalidArgument("not a logical undo op");
    }
    d.node.latch().ReleaseX();
    FlushPending(&op);
    return s;
  }
}

}  // namespace pitree

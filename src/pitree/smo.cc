// lint:allow-naked-latch -- SMO X-latches freshly allocated (unreachable)
// nodes and, while posting, one child S-latched under the latched parent;
// audited with the protocol checker.
// The structure-modification kernel (DESIGN.md §18): the atomic-action
// envelope, root grow, the split action, the §5.3 posting action and the
// completion-job path, shared by the B-link, TSB and multi-attribute trees.

#include "pitree/smo.h"

#include <cassert>
#include <map>

#include "common/thread_annotations.h"
#include "engine/log_apply.h"
#include "engine/page_alloc.h"
#include "maintenance/maintenance_service.h"
#include "mdtree/md_tree.h"
#include "recovery/recovery_manager.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"

namespace pitree {

// ---------------------------------------------------------------------------
// The atomic-action envelope
// ---------------------------------------------------------------------------

SmoAction::SmoAction(EngineContext* ctx, Transaction* user)
    : ctx_(ctx),
      user_(user),
      txn_(user != nullptr ? user : ctx->txns->Begin(/*is_system=*/true)),
      savepoint_(user != nullptr ? user->last_lsn.load() : kInvalidLsn) {}

SmoAction::~SmoAction() { assert(ended_); }

PageHandle* SmoAction::Hold(PageHandle&& page, LatchMode mode) {
  held_.emplace_front(std::move(page), mode);
  return &held_.front().first;
}

// lint:tsa-escape -- promotes a latch its holder took in another function;
// checked by the runtime checker and tools/analyze.
void SmoAction::Promote(PageHandle* page) NO_THREAD_SAFETY_ANALYSIS {
  for (auto& [h, mode] : held_) {
    if (&h == page && mode == LatchMode::kUpdate) {
      h.latch().PromoteUToX();
      mode = LatchMode::kExclusive;
    }
  }
}

// lint:tsa-escape -- releases latches taken by the action's callers; checked
// by the runtime checker and tools/analyze.
Status SmoAction::End(Status s) NO_THREAD_SAFETY_ANALYSIS {
  assert(!ended_);
  ended_ = true;
  if (s.ok() && user_ == nullptr) s = ctx_->txns->Commit(txn_);
  if (!s.ok()) {
    // Roll back while every page the action changed is still X-latched:
    // the undo applies to those frames directly, and no other thread can
    // observe the half-done change in between.
    std::map<PageId, PageHandle*> latched;
    for (auto& [h, mode] : held_) {
      if (mode == LatchMode::kExclusive) latched[h.id()] = &h;
    }
    if (user_ != nullptr) {
      (void)ctx_->recovery->RollbackTxnWithPages(user_, latched, savepoint_);
    } else {
      if (txn_->last_lsn != kInvalidLsn) {
        LogActionAbort(ctx_, txn_);
        (void)ctx_->recovery->RollbackTxnWithPages(txn_, latched);
        LogActionEnd(ctx_, txn_);
      }
      ctx_->locks->ReleaseAll(txn_);
      ctx_->txns->Discard(txn_);
    }
  }
  for (auto& [h, mode] : held_) {
    h.latch().Release(mode);
    h.Reset();
  }
  held_.clear();
  return s;
}

// ---------------------------------------------------------------------------
// Tree creation and the completion-job path
// ---------------------------------------------------------------------------

// lint:tsa-escape -- bootstrap/recovery latches pages across helper
// calls and error paths; checked by the runtime checker and
// tools/analyze.
Status SmoTree::FormatRoot(EngineContext* ctx, PageId root,
                           std::string format) NO_THREAD_SAFETY_ANALYSIS {
  SmoAction action(ctx);
  PageHandle h;
  Status s = ctx->pool->FetchPageZeroed(root, &h);
  if (s.ok()) {
    h.latch().AcquireX();
    PageInitHeader(h.data(), root, PageType::kTreeNode);
    s = LogAndApply(ctx, action.txn(), h, PageOp::kNodeFormat,
                    std::move(format), PageOp::kNone, "");
    h.latch().ReleaseX();  // no other thread can reach the new tree yet
  }
  return action.End(s);
}

bool SmoTree::MoveLockVisible(PageId page) const {
  if (!config_.page_undo) return false;
  // A move lock conflicts with IU; seeing that conflict means a mover holds
  // the node and its index posting must wait for the mover's commit
  // (§4.2.2). The mover itself is no exception: posting the term for an
  // uncommitted in-transaction split would outlive the split's undo.
  return ctx_->locks->WouldConflict(kInvalidTxnId, PageLockName(page),
                                    LockMode::kIU);
}

void SmoTree::SchedulePosting(OpCtx* op, uint8_t level, PageId from,
                              PageId sibling, const Slice& key) const {
  if (MoveLockVisible(from)) return;  // §4.2.2: not across a move lock
  CompletionJob job;
  job.kind = CompletionJob::Kind::kPostIndexTerm;
  job.tree_root = root_;
  job.level = static_cast<uint8_t>(level + 1);
  job.address = sibling;
  job.key = key.ToString();
  job.path = op->path;
  op->pending.push_back(std::move(job));
}

void SmoTree::ScheduleHops(OpCtx* op, const std::vector<SideHop>& hops,
                           const Slice& key) const {
  for (const SideHop& hop : hops) {
    SchedulePosting(op, hop.level, hop.from, hop.to, key);
  }
}

void SmoTree::FlushPending(OpCtx* op) {
  if (op->pending.empty()) return;
  std::vector<CompletionJob> jobs;
  jobs.swap(op->pending);
  if (config_.inline_jobs || ctx_->options.inline_completion ||
      ctx_->maintenance == nullptr) {
    for (const auto& job : jobs) {
      // Completing actions are hints; their failure (e.g. Busy) only delays
      // optimization of the tree, never correctness (§5.1).
      (void)ExecuteJob(job);
    }
  } else {
    for (auto& job : jobs) {
      // Submit may collapse the job into a queued duplicate or drop it for
      // backpressure; both are safe for a hint (§5.1).
      ctx_->maintenance->Submit(std::move(job));
    }
  }
}

// ---------------------------------------------------------------------------
// Splits and root grow
// ---------------------------------------------------------------------------

// lint:tsa-escape -- hands the new node's X latch to the caller; checked by
// the runtime checker and tools/analyze.
Status SmoTree::NewNode(Transaction* owner, std::string format,
                        const std::vector<NodeEntry>& entries,
                        PageHandle* node) NO_THREAD_SAFETY_ANALYSIS {
  PageId pid;
  PITREE_RETURN_IF_ERROR(EngineAllocPage(ctx_, owner, &pid));
  PageHandle h;
  PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPageZeroed(pid, &h));
  h.latch().AcquireX();
  PageInitHeader(h.data(), pid, PageType::kTreeNode);
  Status s = LogAndApply(ctx_, owner, h, PageOp::kNodeFormat,
                         std::move(format), PageOp::kNone, "");
  if (s.ok()) {
    s = LogAndApply(ctx_, owner, h, PageOp::kNodeBulkLoad,
                    NodeRef::BulkLoadPayload(entries), PageOp::kNone, "");
  }
  if (!s.ok()) {
    h.latch().ReleaseX();
    return s;
  }
  *node = std::move(h);
  return Status::OK();
}

std::string SmoTree::FormatLike(const NodeRef& node, uint8_t level,
                                uint8_t nflags) {
  return NodeRef::FormatPayload(
      level, nflags, node.bound_flags(),
      node.low_is_neg_inf() ? Slice() : node.low_key(),
      node.high_is_pos_inf() ? Slice() : node.high_key(), kInvalidPageId);
}

// lint:tsa-escape -- atomic-action SMO: latches flow across helpers and
// error paths; checked by the runtime checker and tools/analyze.
Status SmoTree::GrowRoot(Transaction* owner, PageHandle& root,
                         PageId children[2]) NO_THREAD_SAFETY_ANALYSIS {
  NodeRef node(root.data());
  assert(node.is_root());
  // 1. A fresh child takes the root's whole content and responsibility.
  PageHandle lh;
  PITREE_RETURN_IF_ERROR(NewNode(owner, FormatLike(node, node.level()),
                                 node.AllEntries(), &lh));
  // 2. The tree's own split divides it (and, for the TSB-tree, copies the
  //    history term into the new sibling). The fresh child is reachable
  //    only through the X-latched root; the split allocates and formats
  //    its sibling (pool misses -> disk I/O) under both latches by design.
  Status s = SplitNode(owner, lh, &children[1]);
  // 3. The root becomes an index node one level up holding both children's
  //    terms; undo restores its full prior image.
  NodeEntry terms[2];
  if (s.ok()) {
    children[0] = lh.id();
    config_.root_terms(NodeRef(lh.data()), children[0], children[1], terms);
    std::string image = node.ImagePayload();
    s = LogAndApply(ctx_, owner, root, PageOp::kNodeFormat,
                    FormatLike(node, node.level() + 1, kNodeFlagRoot),
                    PageOp::kNodeUnsplit, std::move(image));
  }
  for (const NodeEntry& term : terms) {
    if (!s.ok()) break;
    s = LogAndApply(ctx_, owner, root, PageOp::kNodeInsert,
                    NodeRef::InsertPayload(term.key, term.value),
                    PageOp::kNodeDelete, NodeRef::DeletePayload(term.key));
  }
  lh.latch().ReleaseX();
  if (!s.ok()) return s;
  Bump(config_.root_grows);
  if (config_.grow_counts_as_split) Bump(config_.splits);
  return Status::OK();
}

// lint:tsa-escape -- atomic-action SMO: latches flow across helpers and
// error paths; checked by the runtime checker and tools/analyze.
Status SmoTree::SplitOffRight(Transaction* owner, PageHandle& h,
                              const std::string& split_key,
                              const std::vector<NodeEntry>& moved,
                              PageId* sibling) NO_THREAD_SAFETY_ANALYSIS {
  NodeRef node(h.data());
  // The sibling inherits the source's sibling term (§3.2.1 step 3: "include
  // any sibling terms to subspaces for which the new node is now
  // responsible").
  PageHandle bh;
  PITREE_RETURN_IF_ERROR(NewNode(
      owner,
      NodeRef::FormatPayload(
          node.level(), 0, node.bound_flags() & kBoundHighPosInf, split_key,
          node.high_is_pos_inf() ? Slice() : node.high_key(),
          node.right_sibling()),
      moved, &bh));
  bh.latch().ReleaseX();
  // §3.2.1 steps 3+5 on the source, one page-oriented record: drop the
  // moved entries and install the sibling term (high key + side pointer).
  PITREE_RETURN_IF_ERROR(LogAndApply(ctx_, owner, h, PageOp::kNodeSplitApply,
                                     NodeRef::SplitPayload(split_key, bh.id()),
                                     PageOp::kNodeUnsplit,
                                     node.ImagePayload()));
  *sibling = bh.id();
  return Status::OK();
}

Status SmoTree::Split(Transaction* owner, PageHandle& h, PageId made[2],
                      bool* grew) {
  made[0] = made[1] = kInvalidPageId;
  *grew = NodeRef(h.data()).is_root();
  if (*grew) return GrowRoot(owner, h, made);
  PITREE_RETURN_IF_ERROR(SplitNode(owner, h, &made[0]));
  Bump(config_.splits);
  return Status::OK();
}

// lint:tsa-escape -- atomic-action SMO: the caller's U latch is promoted and
// released by the action; checked by the runtime checker and tools/analyze.
Status SmoTree::SplitForInsert(OpCtx* op, PageHandle* node, const Slice& key)
    NO_THREAD_SAFETY_ANALYSIS {
  Transaction* user = op->txn;
  const PageId pid = node->id();
  bool in_txn = false;
  std::string move_lock;
  if (config_.page_undo && user != nullptr) {
    // §4.2.1: a split that moves records the transaction updated runs
    // inside it (and is undone if it aborts); otherwise it is an independent
    // action. Either way it first takes the move lock (§4.2.2), which waits
    // out other transactions' uncommitted updates here (their IU locks) —
    // under the No-Wait Rule: never while latched.
    in_txn = MovesOwnRecords(user, NodeRef(node->data()));
    move_lock = PageLockName(pid);
    Status s = ctx_->locks->Lock(user, move_lock, LockMode::kM, false);
    if (!s.ok()) {
      node->latch().ReleaseU();
      node->Reset();
      // The node may change while we wait ("no change, different locks
      // required, or even that the move is no longer required", §4.2.2):
      // the caller re-descends and re-examines it.
      if (s.IsBusy()) s = ctx_->locks->Lock(user, move_lock, LockMode::kM, true);
      return s;
    }
  }
  SmoAction action(ctx_, in_txn ? user : nullptr);
  node->latch().PromoteUToX();
  PageHandle* h = action.Hold(std::move(*node), LatchMode::kExclusive);
  const uint8_t level = NodeRef(h->data()).level();
  PageId made[2];
  bool grew = false;
  Status s = SplitFullLeaf(action.txn(), *h, made, &grew);
  if (s.ok() && in_txn) {
    Bump(config_.in_txn_splits);
    // The moved records must stay frozen wherever they landed: extend the
    // move lock to the new page(s). No conflict is possible yet — the only
    // route to them passes through the node still X-latched here.
    for (PageId np : made) {
      if (np == kInvalidPageId) continue;
      Status ls = ctx_->locks->Lock(user, PageLockName(np), LockMode::kM,
                                    /*wait=*/false);
      assert(ls.ok());
      (void)ls;
    }
  }
  if (!in_txn && !move_lock.empty()) {
    // The independent action's move is done (or undone, below) before any
    // other thread can look: the transaction no longer blocks updaters.
    ctx_->locks->Unlock(user, move_lock);
  }
  s = action.End(s);
  // §3.2.1 step 6: post the new sibling's index term in a separate action.
  // An in-transaction split posts nothing: its move lock suppresses the
  // posting until the transaction commits (§4.2.2), and a later traversal
  // across the side pointer completes it.
  if (s.ok() && !in_txn && !grew && made[0] != kInvalidPageId) {
    SchedulePosting(op, level, pid, made[0], key);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Index-term posting (§5.3)
// ---------------------------------------------------------------------------

// lint:tsa-escape -- hands the latch to the action, which releases it; checked
// by the runtime checker and tools/analyze.
Status SmoTree::MoveTo(SmoAction* action, PageId next, PageHandle** node)
    NO_THREAD_SAFETY_ANALYSIS {
  PageHandle nh;
  PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(next, &nh));
  nh.latch().AcquireX();
  // The previous node stays latched until the action ends, so a rollback
  // never has to re-latch a page behind (or above) this one.
  *node = action->Hold(std::move(nh), LatchMode::kExclusive);
  return Status::OK();
}

// lint:tsa-escape -- atomic-action SMO: latches flow across helpers and
// error paths; checked by the runtime checker and tools/analyze.
template <class Policy>
Status SmoTree::PostIndexTerm(const Policy& policy, const CompletionJob& job)
    NO_THREAD_SAFETY_ANALYSIS {
  Bump(config_.posts_attempted);
  if (job.level == 0) {
    return Status::InvalidArgument("cannot post index terms at the leaf level");
  }
  OpCtx op;  // the action holds no database locks (§4.1.2)

  // --- Step 1: Search. U-latch the node at LEVEL whose directly contained
  // space includes KEY (re-using the remembered PATH where the tree does).
  Descent d;
  Status s = Search(&op, job, &d);
  if (!s.ok()) {
    FlushPending(&op);
    return s;
  }
  SmoAction action(ctx_);
  PageHandle* node = action.Hold(std::move(d.node), LatchMode::kUpdate);
  bool obsolete = false;
  for (;;) {
    NodeRef parent(node->data());
    const Step down = policy.Route(parent, parent.level() - 1);
    if (down.kind != Step::Kind::kChild) {
      s = Status::Corruption("posting parent routes key to no child");
      break;
    }
    // --- Step 2: Verify Split. Exit (a): the term is already posted. A
    // move lock on the child marks an uncommitted in-transaction split,
    // whose posting waits for the mover's commit (§4.2.2).
    if (down.page == job.address || MoveLockVisible(down.page)) {
      obsolete = true;
      break;
    }
    // S-latch the child and test whether a sibling is responsible for the
    // space containing KEY; if so, derive the term this parent needs.
    PageHandle ch;
    s = ctx_->pool->FetchPage(down.page, &ch);
    if (!s.ok()) break;
    ch.latch().AcquireS();
    NodeRef child(ch.data());
    const Step at = policy.Route(child, child.level());
    NodeEntry term;
    bool delegated = false;
    if (at.kind == Step::Kind::kSide) {
      delegated = policy.PostingTerm(parent, child, at.page, &term);
    } else if (at.kind != Step::Kind::kHere) {
      s = Status::Corruption("posting child misroutes key");
    }
    ch.latch().ReleaseS();
    ch.Reset();
    if (!s.ok()) break;
    // Exit (b): no sibling holds KEY's space — the split node was
    // consolidated away, or the term is posted and KEY's space moved on.
    if (!delegated) {
      obsolete = true;
      break;
    }
    // A term already held under its key is posted when it names the same
    // child; under another child, that child's whole term was delegated
    // and the term is replaced in place.
    bool found = false;
    const int slot = parent.FindSlot(term.key, &found);
    std::string old_value;
    if (found) {
      IndexTerm held;
      if (DecodeIndexTerm(parent.EntryValue(slot), &held) &&
          held.child == at.page) {
        obsolete = true;
        break;
      }
      old_value = parent.EntryValue(slot).ToString();
    }
    // The child's S latch is gone; the U latch on the parent becomes X.
    // (The new node cannot be consolidated while the parent is latched: it
    // has no index term yet, and consolidation requires one.)
    action.Promote(node);

    // --- Step 3: Space Test.
    if (!found && !parent.CanFit(term.key.size(), term.value.size())) {
      PageId made[2];
      bool grew = false;
      s = Split(action.txn(), *node, made, &grew);
      if (!s.ok()) break;
      NodeRef after(node->data());
      if (grew) {
        // Root case: continue one level down, in the child whose directly
        // contained space includes KEY.
        s = MoveTo(&action, policy.Route(after, after.level() - 1).page,
                   &node);
      } else {
        // The parent's own split is posted one level up once this action
        // commits: structure changes climb one level at a time (§5).
        SchedulePosting(&op, after.level(), node->id(), made[0], job.key);
        const Step side = policy.Route(after, after.level());
        if (side.kind == Step::Kind::kSide) {
          s = MoveTo(&action, side.page, &node);  // the half holding KEY
        }
      }
      if (!s.ok()) break;
      continue;  // repeat the Space Test
    }

    // --- Step 4: Update the node.
    if (found) {
      s = LogAndApply(ctx_, action.txn(), *node, PageOp::kNodeUpdate,
                      NodeRef::UpdatePayload(term.key, term.value),
                      PageOp::kNodeUpdate,
                      NodeRef::UpdatePayload(term.key, old_value));
    } else {
      s = LogAndApply(ctx_, action.txn(), *node, PageOp::kNodeInsert,
                      NodeRef::InsertPayload(term.key, term.value),
                      PageOp::kNodeDelete, NodeRef::DeletePayload(term.key));
    }
    if (!s.ok()) break;
    Bump(config_.posts_performed);
    // Keep going: if KEY's space is still reached only through further side
    // pointers (several splits piled up), post the next term too; the loop
    // ends at the Verify step once KEY's child directly contains it.
  }
  if (obsolete) Bump(config_.posts_obsolete);
  s = action.End(s);
  FlushPending(&op);
  return s;
}

template Status SmoTree::PostIndexTerm<BlinkPolicy>(const BlinkPolicy&,
                                                    const CompletionJob&);
template Status SmoTree::PostIndexTerm<MdPolicy>(const MdPolicy&,
                                                 const CompletionJob&);

}  // namespace pitree

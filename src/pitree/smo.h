#ifndef PITREE_PITREE_SMO_H_
#define PITREE_PITREE_SMO_H_

// The one structure-modification kernel (DESIGN.md §18). The B-link tree,
// the TSB-tree and the hB-style multi-attribute tree change structure the
// same way (paper §1, claim 6; §5): a full node splits, or at the root the
// tree grows a level; the new sibling's index term is posted to its parent
// by a separate atomic action (§5.3), one parent per action; and a failed
// action rolls back while its pages are still latched. A tree supplies:
//
//   SplitNode   its split (§3.2.1): partition, build the sibling, install
//               the sibling term; optionally SplitFullLeaf (another split
//               kind for a full leaf) and MovesOwnRecords (the §4.2.1 test);
//   Search      the §5.3 Search step: its descent to the posting level;
//   SmoConfig   the two index terms a grown root holds, and its counters;
//   a policy    its routing (descent.h) plus PostingTerm(parent, child,
//               sibling, &term): the index term that the child's delegation
//               of the key's space to `sibling` implies at `parent`.

#include <atomic>
#include <cstdint>
#include <forward_list>
#include <string>
#include <utility>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/engine_context.h"
#include "pitree/completion.h"
#include "pitree/descent.h"
#include "pitree/node_page.h"
#include "pitree/path.h"
#include "storage/buffer_pool.h"
#include "txn/transaction.h"

namespace pitree {

/// Per-operation context threaded through a traversal: the transaction, the
/// saved path (§5.2), and the completing actions it found (§5.1).
struct OpCtx {
  Transaction* txn = nullptr;
  SavedPath path;
  std::vector<CompletionJob> pending;
};

/// One atomic action (§5): a system transaction — or, for a §4.2.1
/// in-transaction split, the user's transaction from a savepoint — plus the
/// pages it holds latched. End() commits, or rolls back *while the pages
/// are still latched*, so no other thread sees a half-done split or root
/// grow; then it releases them.
class SmoAction {
 public:
  /// Begins a system action, or runs inside `user` when non-null.
  explicit SmoAction(EngineContext* ctx, Transaction* user = nullptr);
  SmoAction(const SmoAction&) = delete;
  SmoAction& operator=(const SmoAction&) = delete;
  ~SmoAction();

  Transaction* txn() const { return txn_; }

  /// Takes over `page`, latched in `mode`, until End(); returns the held
  /// handle. Pages are released in reverse order of holding.
  PageHandle* Hold(PageHandle&& page, LatchMode mode);
  /// U -> X on a held page.
  void Promote(PageHandle* page);

  /// Ends the action with outcome `s`: commits when OK; otherwise (or when
  /// the commit fails) rolls back under the held latches. Then releases
  /// every held page. Returns `s` or the commit's error.
  Status End(Status s);

 private:
  EngineContext* const ctx_;
  Transaction* const user_;
  Transaction* const txn_;
  const Lsn savepoint_;
  /// Newest first: End releases in reverse order of holding.
  std::forward_list<std::pair<PageHandle, LatchMode>> held_;
  bool ended_ = false;
};

/// What a tree tells the kernel about itself.
struct SmoConfig {
  /// The two index terms a grown root holds: terms[0] for `left`, the fresh
  /// child that took the root's content and was then split, terms[1] for
  /// its new sibling `right`.
  void (*root_terms)(const NodeRef& left, PageId left_id, PageId right,
                     NodeEntry terms[2]) = nullptr;
  /// Completion jobs always run inline: the tree is not a catalog index,
  /// so the maintenance executor cannot dispatch to it.
  bool inline_jobs = false;
  /// Counters in the tree's own stats; null ones are not counted.
  std::atomic<uint64_t>* side_traversals = nullptr;
  std::atomic<uint64_t>* splits = nullptr;
  std::atomic<uint64_t>* root_grows = nullptr;
  bool grow_counts_as_split = true;  // a root grow also bumps `splits`
  std::atomic<uint64_t>* posts_attempted = nullptr;
  std::atomic<uint64_t>* posts_performed = nullptr;
  std::atomic<uint64_t>* posts_obsolete = nullptr;  // §5.3 verify exits
  std::atomic<uint64_t>* in_txn_splits = nullptr;   // §4.2.1 splits
  /// Undo is page-oriented: a split that would move records updated by an
  /// uncommitted transaction follows the §4.2 move-lock protocol.
  bool page_undo = false;
};

/// Base of the three tree instances: root grow, the split action, the §5.3
/// posting action and the completion-job path, written once.
class SmoTree {
 public:
  SmoTree(const SmoTree&) = delete;
  SmoTree& operator=(const SmoTree&) = delete;
  virtual ~SmoTree() = default;

  PageId root() const { return root_; }

  /// Executes a completing atomic action (§5.1). Idempotent: a job is a
  /// hint that re-tests the tree and ends harmlessly once its work is done.
  virtual Status ExecuteJob(const CompletionJob& job) = 0;

 protected:
  SmoTree(EngineContext* ctx, PageId root) : ctx_(ctx), root_(root) {}
  /// Sets the tree's configuration; called once, from the tree's own
  /// constructor body, where the counters it points at already exist.
  void Configure(const SmoConfig& config) { config_ = config; }

  /// Formats page `root` as an empty leaf root, `format` being its
  /// kNodeFormat payload, inside an atomic action (tree creation).
  static Status FormatRoot(EngineContext* ctx, PageId root,
                           std::string format);

  // -- hooks -----------------------------------------------------------------
  /// Splits the X-latched, non-root node `h` inside `owner` (§3.2.1): on
  /// return the new sibling `*sibling` exists and `h` carries its sibling
  /// term.
  virtual Status SplitNode(Transaction* owner, PageHandle& h,
                           PageId* sibling) = 0;
  /// The split an update runs on a full leaf (default: Split). The
  /// TSB-tree time-splits a leaf heavy with dead versions instead.
  virtual Status SplitFullLeaf(Transaction* owner, PageHandle& leaf,
                               PageId made[2], bool* grew) {
    return Split(owner, leaf, made, grew);
  }
  /// Under `page_undo` (§4.2.1): whether splitting `leaf` would move (or
  /// prune) records `user` updated, so the split must run inside `user`.
  virtual bool MovesOwnRecords(Transaction* /*user*/,
                               const NodeRef& /*leaf*/) const {
    return false;
  }
  /// §5.3 Search: leaves in `d` the node at `job.level` that directly
  /// contains `job.key`, U-latched, scheduling into `op` the postings for
  /// side pointers crossed on the way.
  virtual Status Search(OpCtx* op, const CompletionJob& job, Descent* d) = 0;

  // -- the kernel ------------------------------------------------------------
  /// Latched descent under `policy` (from the root unless `d` names a start
  /// node) that schedules a posting, keyed by `key`, for every side pointer
  /// it crosses; `op` may be null, scheduling nothing.
  template <class Policy>
  Status Traverse(OpCtx* op, const Policy& policy, const Slice& key,
                  Descent* d) const {
    d->counters.side = config_.side_traversals;
    Status s = LatchedDescend(ctx_->pool, root_, policy, d);
    if (op != nullptr) ScheduleHops(op, d->side_hops, key);
    return s;
  }

  /// Traverse to the leaf, latched in `mode` and handed out in `*node`.
  template <class Policy>
  Status DescendTo(OpCtx* op, const Policy& policy, const Slice& key,
                   LatchMode mode, PageHandle* node) const {
    Descent d;
    d.target_mode = mode;
    Status s = Traverse(op, policy, key, &d);
    *node = std::move(d.node);
    return s;
  }

  /// Schedules the posting of each crossed side pointer.
  void ScheduleHops(OpCtx* op, const std::vector<SideHop>& hops,
                    const Slice& key) const;
  /// Schedules the completion of an unposted split found at `from` ->
  /// `sibling` on `level` (skipped while a move lock covers `from`, §4.2.2).
  void SchedulePosting(OpCtx* op, uint8_t level, PageId from, PageId sibling,
                       const Slice& key) const;
  /// Runs `op->pending` inline, or hands it to the maintenance queue.
  void FlushPending(OpCtx* op);
  /// True when a move lock covers `page` (page-oriented undo, §4.2.2).
  bool MoveLockVisible(PageId page) const;

  /// Allocates a fresh node inside `owner`, formats it with `format` and
  /// loads `entries` (sorted); on success it is X-latched in `*node`. Undo
  /// of the format and load is vacuous: rolling back also un-allocates the
  /// page (kSmClear undo), making its bytes garbage.
  Status NewNode(Transaction* owner, std::string format,
                 const std::vector<NodeEntry>& entries, PageHandle* node);
  /// The format of a node at `level` with `nflags` and `node`'s bounds,
  /// outside any side chain.
  static std::string FormatLike(const NodeRef& node, uint8_t level,
                                uint8_t nflags = 0);

  /// The B-link split's second half (§3.2.1 steps 3-5), shared by the
  /// B-link and TSB hooks: a new right sibling responsible for [split_key,
  /// h's high key) takes `moved` (sorted) and inherits h's sibling term;
  /// one page-oriented record then drops h's entries at or above
  /// `split_key` and installs the sibling term for the new node.
  Status SplitOffRight(Transaction* owner, PageHandle& h,
                       const std::string& split_key,
                       const std::vector<NodeEntry>& moved, PageId* sibling);

  /// Splits the X-latched `h` inside `owner`: a root grows the tree
  /// (GrowRoot: `made` gets its two children, `*grew` is set), any other
  /// node splits by the hook (`made[0]` gets the sibling to post).
  Status Split(Transaction* owner, PageHandle& h, PageId made[2], bool* grew);

  /// The split for a full leaf that `op` must update (U-latched `node`):
  /// an independent atomic action, or under `page_undo` one inside
  /// `op->txn` when it moves the transaction's own records (§4.2). Releases
  /// `node` on every path; the caller re-descends. After an independent
  /// split, schedules the sibling's posting (§3.2.1 step 6).
  Status SplitForInsert(OpCtx* op, PageHandle* node, const Slice& key);

  /// The §5.3 index-term posting action for `job`, routed by `policy`:
  /// Search, Verify Split, Space Test (escalating to a split or a root
  /// grow; a split schedules the next level's posting), Update.
  template <class Policy>
  Status PostIndexTerm(const Policy& policy, const CompletionJob& job);

  EngineContext* const ctx_;
  const PageId root_;

 private:
  /// The §5.3 Space Test root case: moves the root's content into a fresh
  /// child, splits that child by the hook, and reformats the root one level
  /// up with the two index terms `config_.root_terms` encodes. The root
  /// page id never changes (it is immortal).
  Status GrowRoot(Transaction* owner, PageHandle& root, PageId children[2]);

  /// Holds `next` X-latched in `action` and makes it the current node.
  Status MoveTo(SmoAction* action, PageId next, PageHandle** node);

  static void Bump(std::atomic<uint64_t>* counter) {
    if (counter != nullptr) counter->fetch_add(1, std::memory_order_relaxed);
  }

  SmoConfig config_;
};

}  // namespace pitree

#endif  // PITREE_PITREE_SMO_H_

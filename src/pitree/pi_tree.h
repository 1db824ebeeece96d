#ifndef PITREE_PITREE_PI_TREE_H_
#define PITREE_PITREE_PI_TREE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/options.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/striped_counter.h"
#include "common/types.h"
#include "engine/engine_context.h"
#include "pitree/completion.h"
#include "pitree/descent.h"
#include "pitree/node_page.h"
#include "pitree/path.h"
#include "pitree/smo.h"
#include "storage/buffer_pool.h"
#include "txn/transaction.h"

namespace pitree {

/// Operation counters exposed for the experiments.
struct PiTreeStats {
  std::atomic<uint64_t> side_traversals{0};
  std::atomic<uint64_t> splits{0};
  std::atomic<uint64_t> root_grows{0};
  std::atomic<uint64_t> posts_attempted{0};
  std::atomic<uint64_t> posts_performed{0};
  std::atomic<uint64_t> posts_obsolete{0};  // verify-step terminations (§5.3)
  std::atomic<uint64_t> consolidations_attempted{0};
  std::atomic<uint64_t> consolidations_performed{0};
  std::atomic<uint64_t> restarts{0};        // re-descents after revalidation
  std::atomic<uint64_t> saved_path_hits{0};
  std::atomic<uint64_t> saved_path_misses{0};
  std::atomic<uint64_t> in_txn_splits{0};   // page-oriented-undo mode (§4.2)
  StripedCounter optimistic_gets;                 // latch-free Get successes
  std::atomic<uint64_t> optimistic_fallbacks{0};  // Busy -> latched descent
};

/// The Π-tree (paper §2), instantiated as a B-link search structure:
/// each node carries one sibling term — the pair (high key, right sibling) —
/// delegating the key space at or above the high key.
///
/// Concurrency and recovery follow the paper:
///  - every structure change is a sequence of atomic actions (system
///    transactions), each leaving the tree well-formed (§5);
///  - node splits and index-term postings are separate actions; searchers
///    see intermediate states and complete them (§5.1);
///  - latching uses S/U/X modes ordered parent->child, container->contained,
///    space map last (§4.1.1), with the No-Wait Rule for database locks
///    (§4.1.2);
///  - with page-oriented UNDO (Options::page_oriented_undo) data-node splits
///    that move uncommitted records run inside the updating transaction
///    under a move lock (§4.2); otherwise undo is logical and all splits are
///    independent actions;
///  - consolidation (CP) or its absence (CNS) selects the traversal regime
///    of §5.2: latch coupling + verified saved paths vs. single-latch
///    traversal + trusted paths.
///
/// Thread-safe: any number of concurrent operations on one PiTree instance.
class PiTree : public SmoTree {
 public:
  /// Attaches to an existing tree rooted (immortally) at `root`.
  PiTree(EngineContext* ctx, PageId root);

  PiTree(const PiTree&) = delete;
  PiTree& operator=(const PiTree&) = delete;

  /// Formats `root` as an empty leaf root inside an atomic action.
  static Status Create(EngineContext* ctx, PageId root);

  // -- transactional record operations ------------------------------------
  /// Inserts (key, value); InvalidArgument for empty keys or if the key
  /// already exists. Takes an X record lock held to end of transaction.
  Status Insert(Transaction* txn, const Slice& key, const Slice& value);

  /// Insert variant that refuses to change the tree structure: returns
  /// NoSpace instead of splitting. Used by the serial-SMO baseline, which
  /// must perform structure changes under its global tree latch.
  Status InsertNoSplit(Transaction* txn, const Slice& key,
                       const Slice& value);

  /// Replaces the value of an existing key (NotFound otherwise).
  Status Update(Transaction* txn, const Slice& key, const Slice& value);

  /// Deletes a key (NotFound if absent).
  Status Delete(Transaction* txn, const Slice& key);

  /// Point lookup with an S record lock (held to end of transaction).
  Status Get(Transaction* txn, const Slice& key, std::string* value);

  /// Range scan from `start` (inclusive), latch-consistent reads (no record
  /// locks — readers see committed-or-in-flight data like any B-link scan).
  Status Scan(Transaction* txn, const Slice& start, size_t limit,
              std::vector<NodeEntry>* out);

  // -- structure-change machinery (public for tests and the completion
  //    queue; normal callers never invoke these directly) ------------------
  /// Executes a completing atomic action (§5.1): an index-term posting
  /// (pitree/smo.h) or a consolidation. Idempotent.
  Status ExecuteJob(const CompletionJob& job) override;

  /// The consolidation atomic action (§3.3).
  Status Consolidate(const CompletionJob& job);

  /// Logical undo entry point (§4.2 non-page-oriented recovery): performs
  /// the inverse of a data-node op wherever the key now lives, logging a CLR.
  Status LogicalUndo(Transaction* txn, PageOp undo_op, const Slice& payload,
                     Lsn undo_next);

  /// Structural invariant checker (§2.1.3). Call quiesced. On violation
  /// returns Corruption and, if `report` != nullptr, a description.
  Status CheckWellFormed(std::string* report) const;

  // -- background maintenance entry points (MaintenanceService sweeps) -----
  /// Idle consolidation scanner (§3.3): walks up to `max_nodes` data nodes
  /// of the leaf side chain starting at `*cursor` (empty = leftmost) under
  /// shared latches, scheduling consolidation for under-utilized nodes
  /// without waiting for a traversal to trip over them. Advances `*cursor`
  /// to the resume key; clears it when the walk wrapped past the last node.
  Status SweepForConsolidation(size_t max_nodes, std::string* cursor,
                               size_t* examined, size_t* scheduled);

  /// Online well-formedness auditor: checks the §2.1.3 invariants along the
  /// root-to-leaf path for `key` under shared latch coupling, safe against
  /// live traffic (unlike CheckWellFormed, which requires quiescence).
  /// Returns Corruption and a description on violation.
  Status AuditPath(const Slice& key, size_t* nodes_checked,
                   std::string* report) const;

  const PiTreeStats& stats() const { return stats_; }

  /// Builds the logical-undo payload for a data-node record.
  static std::string LogicalUndoPayload(PageId root, const Slice& key,
                                        const Slice& value);

 private:
  friend class PiTreeTestPeer;

  /// Descends to the node at `target_level` whose directly contained space
  /// includes `key`, latched in `target_mode`, under the CP/CNS regime
  /// (§5.2); schedules postings for crossed side pointers. `hint` (may be
  /// null) is a saved path: verified entries short-circuit the search per
  /// §5.2/§5.3 step 1.
  Status Descend(OpCtx* op, const Slice& key, uint8_t target_level,
                 LatchMode target_mode, const SavedPath* hint, Descent* d);

  /// The §5.2 saved-path start: under CNS the deepest remembered node at or
  /// above the target level (nodes are immortal), under CP strategy (b) the
  /// deepest one whose state id is unchanged. Leaves it latched in `d`, or
  /// `d->node` empty when the descent must start at the root.
  Status StartFromSavedPath(const SavedPath& hint, Descent* d);

  /// The posting action's Search step: Descend with the job's saved path.
  Status Search(OpCtx* op, const CompletionJob& job, Descent* d) override;

  /// Notes an under-utilized node for consolidation (CP regime only).
  void MaybeScheduleConsolidate(OpCtx* op, const NodeRef& node, PageId pid);

  /// Acquires a record lock under the No-Wait Rule (§4.1.2): try while
  /// latched; on conflict release the leaf latch, wait, re-latch and
  /// revalidate. Sets *restart when the leaf no longer covers the key and
  /// the whole operation must re-descend.
  Status LockRecordNoWait(OpCtx* op, PageHandle* leaf, LatchMode mode,
                          const Slice& key, LockMode lock_mode, bool* restart);

  /// The B-link split (§3.2.1) of the X-latched node `h`, owned by the
  /// atomic action or user transaction `txn` (§4.2 decides which): the
  /// upper half of the entries moves to a new right sibling, which inherits
  /// `h`'s sibling term; `h` gets the sibling term for the new node.
  Status SplitNode(Transaction* txn, PageHandle& h,
                   PageId* new_sibling) override;

  /// §4.2.1: whether the leaf's split would move a record `user` updated.
  bool MovesOwnRecords(Transaction* user, const NodeRef& leaf) const override;

  Status InsertImpl(Transaction* txn, const Slice& key, const Slice& value,
                    bool allow_split);

  mutable PiTreeStats stats_;
};

}  // namespace pitree

#endif  // PITREE_PITREE_PI_TREE_H_

#ifndef PITREE_TSB_TSB_TREE_H_
#define PITREE_TSB_TSB_TREE_H_

#include <atomic>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/striped_counter.h"
#include "common/types.h"
#include "engine/engine_context.h"
#include "pitree/descent.h"
#include "pitree/node_page.h"
#include "pitree/smo.h"
#include "storage/buffer_pool.h"
#include "txn/transaction.h"

namespace pitree {

/// Version timestamps: logical, monotonically increasing per tree (drawn
/// from the engine's TimestampOracle when one is wired up, so they share
/// the commit-timestamp timeline).
using TsbTime = uint64_t;

/// "Read latest" sentinel: the maximum representable version time. Every
/// real version timestamp is strictly below it.
inline constexpr TsbTime kTsbTimeMax = ~TsbTime{0};

class TsbPolicy;

struct TsbStats {
  std::atomic<uint64_t> key_splits{0};
  std::atomic<uint64_t> time_splits{0};
  std::atomic<uint64_t> root_grows{0};
  std::atomic<uint64_t> history_hops{0};  // history sibling traversals
  std::atomic<uint64_t> side_traversals{0};
  StripedCounter optimistic_gets;                 // latch-free read successes
  std::atomic<uint64_t> optimistic_fallbacks{0};  // Busy -> latched descent
};

/// One version returned by history queries.
struct TsbVersion {
  TsbTime time;
  bool deleted;        // tombstone
  std::string value;
};

/// One result of a bounded as-of range scan: the key's live value at the
/// scan's time, and the version timestamp it was written at.
struct TsbScanEntry {
  std::string key;
  TsbTime time;
  std::string value;
};

/// The Time-Split B-tree (paper §2.2.2, Figure 1) as a Π-tree instance:
/// the second search structure driven by the same atomic-action machinery.
///
/// Current nodes are responsible for their key space *and its entire
/// history*: a **key sibling pointer** (the B-link side pointer) delegates
/// higher key ranges, and a **history sibling pointer** delegates all
/// versions older than the node's last time split. A time split copies the
/// node's contents into a new *historical* node (which never splits again)
/// and prunes dead versions from the current node; a key split delegates the
/// upper key range to a new current node, which receives a copy of the
/// history pointer (Figure 1's caption, verbatim behavior).
///
/// Both split kinds are independent atomic actions — or, when they would
/// move or prune the writing transaction's own uncommitted versions, part
/// of that transaction under a move lock (§4.2; undo is page-oriented).
/// Splits, root grows and index-term postings run through the same kernel
/// (pitree/smo.h) and completion-job path as the Π-tree.
///
/// Storage mapping: records are composite-keyed (user_key · 0x00 · time) in
/// ordinary tree-node pages; the history sibling term is a reserved entry
/// ("\x01H") holding (history page, split time). User keys must be
/// non-empty and free of 0x00 bytes.
///
/// Simplification (documented in DESIGN.md): index nodes are not time-split;
/// historical data is reached through history sibling chains from current
/// nodes. This preserves Figure 1's node-level behavior and the Π-tree
/// generality claim while keeping the index single-dimension.
class TsbTree : public SmoTree {
 public:
  TsbTree(EngineContext* ctx, PageId root);
  TsbTree(const TsbTree&) = delete;
  TsbTree& operator=(const TsbTree&) = delete;

  static Status Create(EngineContext* ctx, PageId root);

  /// Returns a fresh timestamp greater than any returned before. Delegates
  /// to the engine's oracle when present so version times, split times, and
  /// commit timestamps share one timeline; standalone trees fall back to a
  /// per-tree clock.
  TsbTime Now();

  /// Writes a new version of `key` at time `t` (t from Now(), or any value
  /// larger than the key's previous versions).
  Status Put(Transaction* txn, const Slice& key, const Slice& value,
             TsbTime t);

  /// Writes a deletion tombstone at time `t`.
  Status Erase(Transaction* txn, const Slice& key, TsbTime t);

  /// MVCC write path: allocates the version time from the oracle,
  /// registering `txn` as an active writer on its first write so snapshots
  /// cannot advance past its uncommitted versions, and retries with a
  /// fresh time when a concurrent committed writer raced the allocation
  /// (the race resolves once this transaction holds the record X lock).
  Status Put(Transaction* txn, const Slice& key, const Slice& value);
  Status Erase(Transaction* txn, const Slice& key);

  /// Latest version as of `t` (NotFound if absent or tombstoned).
  Status GetAsOf(Transaction* txn, const Slice& key, TsbTime t,
                 std::string* value);

  /// Current version (as of "now").
  Status Get(Transaction* txn, const Slice& key, std::string* value) {
    return GetAsOf(txn, key, kTsbTimeMax, value);
  }

  /// Snapshot point read: latest version as of `t` with §4.1 latches only —
  /// zero lock-manager locks. Correct when `t` is an oracle snapshot
  /// timestamp: no version at or below it can be uncommitted or change.
  Status SnapshotGet(const Slice& key, TsbTime t, std::string* value);

  /// Bounded snapshot range scan over user keys in [start, end) as of `t`
  /// (empty `start` = from the first key, empty `end` = unbounded),
  /// appending at most `limit` live results to `out` in key order.
  /// Latch-only, like SnapshotGet.
  Status ScanAsOf(const Slice& start, const Slice& end, TsbTime t,
                  size_t limit, std::vector<TsbScanEntry>* out);

  /// All versions of `key`, newest first, following history chains.
  Status History(Transaction* txn, const Slice& key,
                 std::vector<TsbVersion>* versions);

  /// Executes a completing atomic action: an index-term posting (§5.3).
  Status ExecuteJob(const CompletionJob& job) override;

  /// Structural sanity checker for the TSB instance: current-level B-link
  /// invariants plus history-chain time ordering.
  Status CheckWellFormed(std::string* report) const;

  /// Debug/figure support: renders the node partition (current + history
  /// chains) as text — used by bench_fig1_tsb to reproduce Figure 1.
  Status DumpStructure(std::string* out) const;

  const TsbStats& stats() const { return stats_; }

  // Composite-key helpers (exposed for tests).
  static std::string CompositeKey(const Slice& key, TsbTime t);
  static bool SplitComposite(const Slice& composite, Slice* key, TsbTime* t);
  static const char* kHistoryEntryKey;  // reserved in-node entry key

 private:
  friend class TsbPolicy;

  struct HistoryTerm {
    PageId page = kInvalidPageId;
    TsbTime split_time = 0;
  };

  static std::string EncodeHistoryTerm(PageId page, TsbTime t);
  static bool DecodeHistoryTerm(const Slice& v, HistoryTerm* term);
  static bool GetHistoryTerm(const NodeRef& node, HistoryTerm* term);

  /// The posting action's Search step: B-link routing on the composite key.
  Status Search(OpCtx* op, const CompletionJob& job, Descent* d) override;

  /// Splits the X-latched current leaf by time at `t` (atomic action owner
  /// `action`): new historical node takes a full copy; dead versions are
  /// pruned from the current node.
  Status TimeSplit(Transaction* action, PageHandle& leaf, TsbTime t);

  /// The key split of an X-latched current node (leaf or index), copying a
  /// leaf's history term into the new sibling (Figure 1).
  Status SplitNode(Transaction* action, PageHandle& node,
                   PageId* sibling) override;

  /// The split kind for a full leaf (§2.2.2 policy): a time split when
  /// enough versions are dead, else a key split (a root leaf grows).
  Status SplitFullLeaf(Transaction* owner, PageHandle& leaf, PageId made[2],
                       bool* grew) override;

  /// §4.2.1: whether the leaf holds a version of a key `user` X-locked.
  bool MovesOwnRecords(Transaction* user, const NodeRef& leaf) const override;

  Status WriteVersion(Transaction* txn, const Slice& key, TsbTime t,
                      bool tombstone, const Slice& value);

  /// MVCC write helper: version timestamp from the oracle (registering the
  /// transaction as a writer on first use), with bounded retry on stale
  /// timestamps.
  Status WriteCurrent(Transaction* txn, const Slice& key, bool tombstone,
                      const Slice& value);
  TsbTime AllocateVersionTs(Transaction* txn);

  std::atomic<TsbTime> clock_{1};
  mutable TsbStats stats_;
};

/// Descent policy of the TSB-tree (DESIGN.md §17): current nodes route by
/// the B-link rules on CompositeKey(key, 0); at the leaf, the version of
/// `key` as of `t` is resolved along history sibling pointers (Figure 1).
/// Holds its routing keys, so it is neither copied nor moved.
class TsbPolicy {
 public:
  TsbPolicy(const Slice& key, TsbTime t);
  TsbPolicy(const TsbPolicy&) = delete;
  TsbPolicy& operator=(const TsbPolicy&) = delete;

  /// CompositeKey(key, 0): the key current nodes are routed by.
  const std::string& current_key() const { return composite_; }

  bool Covers(const NodeRef& node) const { return current_.Covers(node); }
  Step Route(const NodeRef& node, uint8_t target_level) const {
    return current_.Route(node, target_level);
  }
  /// The latest version of the key at or before `t` held by `node` (OK, or
  /// NotFound for a tombstone or no version at all), or the history hop
  /// toward it when every version here is newer than `t`.
  Answer Resolve(const NodeRef& node, std::string* value) const;

 private:
  Slice key_;
  TsbTime t_;
  std::string composite_;  // CompositeKey(key, 0): routes current nodes
  std::string probe_;      // CompositeKey(key, t): the version search key
  BlinkPolicy current_;
};

}  // namespace pitree

#endif  // PITREE_TSB_TSB_TREE_H_

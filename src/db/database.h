#ifndef PITREE_DB_DATABASE_H_
#define PITREE_DB_DATABASE_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/background.h"
#include "common/mutex.h"
#include "common/options.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/engine_context.h"
#include "env/env.h"
#include "maintenance/maintenance_service.h"
#include "mvcc/snapshot.h"
#include "mvcc/timestamp_oracle.h"
#include "pitree/pi_tree.h"
#include "recovery/checkpoint.h"
#include "recovery/recovery_manager.h"
#include "recovery/recovery_map.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "tsb/tsb_tree.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"
#include "wal/wal_manager.h"

namespace pitree {

/// The embedding API: a small storage engine around the Π-tree.
///
/// Owns the WAL, buffer pool, lock/transaction managers, recovery, and a
/// catalog (itself a Π-tree rooted at the catalog page) mapping index names
/// to immortal root pages. Open() replays the log: after any crash the
/// database comes back with every committed transaction's effects and every
/// interrupted structure change either completed (its atomic actions that
/// committed) or cleanly absent (the loser action undone); no index-specific
/// recovery code exists (paper claim 4).
///
/// With Options::instant_restore, Open() returns after analysis + undo only:
/// redo is deferred into a per-page index (recovery/recovery_map.h) that the
/// buffer pool consults on first fetch, so traffic is served while history
/// repeats lazily. A background sweeper (Options::recovery_sweeper) touches
/// the remaining pages so the map drains even without traffic;
/// WaitUntilRecovered() blocks until it is empty. Either mode produces
/// byte-identical pages — redo is per-page and the LSN state identifier
/// makes each page's replay order-insensitive across pages.
class Database {
 public:
  /// Opens (creating if necessary) the database `name` within `env`.
  /// `stats`, when non-null, receives the recovery pass counters.
  static Status Open(const Options& options, Env* env,
                     const std::string& name, std::unique_ptr<Database>* db,
                     RecoveryStats* stats = nullptr);

  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // -- transactions ---------------------------------------------------------
  Transaction* Begin();
  Status Commit(Transaction* txn);
  Status Abort(Transaction* txn);

  /// Opens a snapshot transaction: a consistent read-only view of every
  /// TSB-tree index as of the current durable-commit horizon. Snapshot
  /// reads take zero lock-manager locks (mvcc/snapshot.h); destroy the
  /// handle when done so the oracle's low-watermark can advance.
  std::unique_ptr<SnapshotTxn> BeginSnapshot() {
    return std::make_unique<SnapshotTxn>(oracle_.get());
  }

  /// The MVCC timestamp authority (tests and harnesses probe it).
  TimestampOracle* oracle() { return oracle_.get(); }

  // -- indexes --------------------------------------------------------------
  /// Creates a named B-link Π-tree index (InvalidArgument if it exists).
  Status CreateIndex(const std::string& name, PiTree** tree);
  /// Looks up an existing Π-tree index.
  Status GetIndex(const std::string& name, PiTree** tree);

  /// Creates / looks up a named TSB-tree (multiversion) index.
  Status CreateTsbIndex(const std::string& name, TsbTree** tree);
  Status GetTsbIndex(const std::string& name, TsbTree** tree);

  // -- recovery -------------------------------------------------------------
  /// Blocks until every page pending lazy redo has been replayed (a no-op
  /// after offline recovery, or once the map has drained). Drives the drain
  /// itself — it does not merely wait on the sweeper — so it converges even
  /// with Options::recovery_sweeper off. Call with no transactions' latches
  /// held (it fetches pages).
  Status WaitUntilRecovered();

  /// Pages still awaiting lazy redo; zero once recovery has fully repeated
  /// history. Lock-free.
  size_t recovery_pending_pages() const {
    return recovery_map_->pending_pages();
  }

  /// The instant-restore redo index (tests probe its counters).
  RecoveryMap* recovery_map() { return recovery_map_.get(); }

  // -- maintenance ----------------------------------------------------------
  /// Takes a fuzzy checkpoint (ATT + DPT + master record), then truncates
  /// WAL segments wholly below the floor the checkpoint justifies.
  /// `begin`, when non-null, receives the checkpoint's begin LSN.
  Status Checkpoint(Lsn* begin = nullptr);
  /// Checkpoints completed since Open (foreground and background). Tests and
  /// benches use it to confirm the continuous checkpointer is actually
  /// firing.
  uint64_t checkpoints_taken() const {
    return checkpoints_taken_.load(std::memory_order_relaxed);
  }
  /// Stops the background checkpointer, if one is running; idempotent
  /// and harmless when none was started. Crash tests call this before
  /// abandoning a database (SimEnv::Crash + release) so no detached thread
  /// keeps mutating the post-crash environment they are about to verify.
  void StopCheckpointer() { checkpoint_runner_.Stop(); }
  /// Drains pending background maintenance, then flushes WAL and all dirty
  /// pages (clean shutdown helper).
  Status FlushAll();

  EngineContext* context() { return &ctx_; }
  /// Buffer-pool counters (per-shard hits/misses/evictions/flushes/waits),
  /// for experiments and operational visibility.
  PoolStats pool_stats() const { return pool_->Stats(); }
  /// Group-commit WAL counters (appends / batches / syncs / waiter
  /// wakeups); a lock-free snapshot that never contends with appenders.
  WalStats wal_stats() const { return wal_.stats(); }
  /// The background scheduler for all structure-maintenance work: sharded
  /// completion queues, the consolidation sweeper, and the online auditor.
  MaintenanceService* maintenance() { return maintenance_.get(); }

 private:
  Database() = default;
  Status Init(const Options& options, Env* env, const std::string& name,
              RecoveryStats* stats);
  PiTree* TreeAt(PageId root);
  TsbTree* TsbAt(PageId root);
  /// The open tree a completion job for `root` runs on: a TSB index's, else
  /// the Π-tree's.
  SmoTree* JobTree(PageId root);
  Status LookupCatalog(const std::string& name, PageId* root, uint8_t* type);
  /// All open Π-trees (catalog included) — the sweep tasks' working set.
  std::vector<PiTree*> SnapshotTrees();
  void SweepConsolidationTask();
  void AuditTask();
  /// The lazy-redo walk's one step, shared by the recovery sweeper and
  /// WaitUntilRecovered: fetches (so replays) the first page pending at or
  /// above `*floor`, wrapping once, and moves `*floor` past it unless the
  /// fetch was Busy. False, with nothing fetched, once the map is drained.
  bool RedoNextPending(PageId* floor, Status* s);
  /// Background lazy-redo drain in page-id order, so the recovery map
  /// empties even on a read-light workload.
  BackgroundThread::Next RecoverySweepStep();
  /// Continuous checkpointing (DESIGN.md §14): fires a fuzzy checkpoint
  /// whenever Options::checkpoint_interval_ms has elapsed or
  /// Options::checkpoint_log_bytes of new log accumulated since the last
  /// one it took, then truncates WAL segments below the checkpoint's floor.
  BackgroundThread::Next CheckpointStep();

  EngineContext ctx_;
  DiskManager disk_;
  WalManager wal_;
  std::unique_ptr<RecoveryMap> recovery_map_;
  std::unique_ptr<BufferPool> pool_;
  LockManager locks_;
  std::unique_ptr<TimestampOracle> oracle_;
  std::unique_ptr<TxnManager> txns_;
  std::unique_ptr<RecoveryManager> recovery_;
  std::unique_ptr<CheckpointManager> checkpoints_;
  std::unique_ptr<MaintenanceService> maintenance_;
  std::unique_ptr<PiTree> catalog_;

  Mutex trees_mu_;
  std::unordered_map<PageId, std::unique_ptr<PiTree>> trees_
      GUARDED_BY(trees_mu_);
  std::unordered_map<PageId, std::unique_ptr<TsbTree>> tsb_trees_
      GUARDED_BY(trees_mu_);

  Mutex maint_mu_;  // sweep cursors + audit RNG
  std::unordered_map<PageId, std::string> sweep_cursors_
      GUARDED_BY(maint_mu_);
  Random audit_rnd_ GUARDED_BY(maint_mu_){0xA0D17};

  std::atomic<uint64_t> checkpoints_taken_{0};

  // Step state, touched only by the step's own thread.
  PageId sweep_floor_ = 0;
  int sweep_errors_ = 0, checkpoint_errors_ = 0;
  std::chrono::milliseconds checkpoint_poll_{1};
  std::chrono::steady_clock::time_point last_checkpoint_time_;
  Lsn last_checkpoint_begin_ = 0;
  BackgroundThread redo_sweep_runner_{[this] { return RecoverySweepStep(); }};
  BackgroundThread checkpoint_runner_{[this] { return CheckpointStep(); }};
};

}  // namespace pitree

#endif  // PITREE_DB_DATABASE_H_

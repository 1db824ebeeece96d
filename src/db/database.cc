// lint:allow-naked-latch -- bootstrap formats the space-map and catalog
// pages under X before any concurrency exists; audited with the checker.
#include "common/thread_annotations.h"
#include "db/database.h"

#include <chrono>
#include <thread>

#include "common/coding.h"
#include "engine/log_apply.h"
#include "engine/page_alloc.h"
#include "storage/space_map.h"

namespace pitree {

Status Database::Open(const Options& options, Env* env,
                      const std::string& name, std::unique_ptr<Database>* db,
                      RecoveryStats* stats) {
  std::unique_ptr<Database> d(new Database());
  PITREE_RETURN_IF_ERROR(d->Init(options, env, name, stats));
  *db = std::move(d);
  return Status::OK();
}

// lint:tsa-escape -- bootstrap/recovery latches pages across helper
// calls and error paths; checked by the runtime checker and
// tools/analyze.
Status Database::Init(const Options& options, Env* env,
                      const std::string& name, RecoveryStats* stats)
    NO_THREAD_SAFETY_ANALYSIS {
  ctx_.options = options;
  ctx_.env = env;
  if (options.fault_plan != nullptr) {
    // Arm the fault schedule before the first file op so opening the log
    // and recovering are themselves subject to injected faults.
    env->InstallFaultPlan(options.fault_plan);
  }

  PITREE_RETURN_IF_ERROR(disk_.Open(env, name + ".db"));
  PITREE_RETURN_IF_ERROR(wal_.Open(env, name + ".wal",
                                   /*group_commit_window_us=*/0,
                                   options.wal_segment_bytes));
  ctx_.wal = &wal_;

  // The redo index exists in both recovery modes (empty after offline
  // recovery); analysis installs into it, the pool replays from it.
  recovery_map_ = std::make_unique<RecoveryMap>(&wal_);
  ctx_.recovery_map = recovery_map_.get();

  pool_ = std::make_unique<BufferPool>(
      &disk_, options.buffer_pool_pages,
      [this](Lsn lsn) { return wal_.Flush(lsn); }, options.buffer_pool_shards);
  pool_->set_recovery_map(recovery_map_.get());
  ctx_.pool = pool_.get();

  ctx_.locks = &locks_;
  // The oracle exists before the transaction manager and recovery: commits
  // stamp timestamps from it, and recovery restarts it above the replayed
  // maximum before any new transaction can draw one.
  oracle_ = std::make_unique<TimestampOracle>();
  ctx_.oracle = oracle_.get();
  txns_ = std::make_unique<TxnManager>(&wal_, &locks_);
  txns_->set_oracle(oracle_.get());
  ctx_.txns = txns_.get();

  recovery_ = std::make_unique<RecoveryManager>(&ctx_, name + ".master");
  ctx_.recovery = recovery_.get();
  txns_->set_rollback_handler(
      [this](Transaction* txn) { return recovery_->RollbackTxn(txn); });
  recovery_->set_logical_undo_handler(
      [this](Transaction* txn, PageOp op, const Slice& payload,
             Lsn undo_next) {
        // The payload names the tree root; dispatch to that tree.
        Slice peek = payload;
        uint32_t root;
        if (!GetFixed32(&peek, &root)) {
          return Status::Corruption("logical undo payload root");
        }
        return TreeAt(root)->LogicalUndo(txn, op, payload, undo_next);
      });

  checkpoints_ = std::make_unique<CheckpointManager>(
      env, &wal_, pool_.get(), txns_.get(), name + ".master", oracle_.get(),
      recovery_map_.get());

  maintenance_ = std::make_unique<MaintenanceService>(options);
  ctx_.maintenance = maintenance_.get();
  maintenance_->set_executor([this](const CompletionJob& job) {
    return JobTree(job.tree_root)->ExecuteJob(job);
  });
  maintenance_->RegisterSweepTask("consolidation-scan",
                                  [this] { SweepConsolidationTask(); });
  maintenance_->RegisterSweepTask("wellformed-audit", [this] { AuditTask(); });

  // Crash recovery (a no-op for a fresh database with an empty log).
  if (options.instant_restore) {
    // Instant restore (DESIGN.md §13): analysis builds the per-page redo
    // index, undo rolls back losers (fetching a loser's pages replays them
    // on demand through the same map), and Open returns with redo pending.
    // First fetch of each remaining page repeats its history lazily.
    PITREE_RETURN_IF_ERROR(recovery_->RunAnalysis(stats));
    PITREE_RETURN_IF_ERROR(recovery_->RunUndo(stats));
    if (stats != nullptr) {
      stats->records_redone = recovery_map_->records_replayed();
      stats->pages_pending = recovery_map_->pending_pages();
    }
  } else {
    PITREE_RETURN_IF_ERROR(recovery_->Run(stats));
  }

  // Bootstrap if the metadata pages are not yet formatted. This runs inside
  // one atomic action, so a crash mid-bootstrap leaves nothing behind.
  // Both metadata pages must be probed: a crash can cut the log between the
  // space-map format and the catalog format (format records carry no undo,
  // so rolling back the half-done action leaves the space map formatted),
  // and keying freshness on the space map alone would then skip the
  // bootstrap and hand out an unformatted catalog page. Re-running the
  // bootstrap is safe in that state — nothing can have been allocated or
  // cataloged before the bootstrap action committed.
  {
    PageHandle h;
    PITREE_RETURN_IF_ERROR(pool_->FetchPage(kSpaceMapPage, &h));
    bool fresh = PageGetType(h.data()) != PageType::kSpaceMap;
    h.Reset();
    PITREE_RETURN_IF_ERROR(pool_->FetchPage(kCatalogPage, &h));
    fresh = fresh || PageGetType(h.data()) != PageType::kTreeNode;
    h.Reset();
    if (fresh) {
      Transaction* action = txns_->Begin(/*is_system=*/true);
      PageHandle sm;
      PITREE_RETURN_IF_ERROR(pool_->FetchPageZeroed(kSpaceMapPage, &sm));
      sm.latch().AcquireX();
      PageInitHeader(sm.data(), kSpaceMapPage, PageType::kSpaceMap);
      Status s = LogAndApply(&ctx_, action, sm, PageOp::kSmFormat,
                             SmFormatPayload(), PageOp::kNone, "");
      sm.latch().ReleaseX();
      sm.Reset();
      if (s.ok()) {
        PageHandle cat;
        s = pool_->FetchPageZeroed(kCatalogPage, &cat);
        if (s.ok()) {
          cat.latch().AcquireX();
          PageInitHeader(cat.data(), kCatalogPage, PageType::kTreeNode);
          s = LogAndApply(
              &ctx_, action, cat, PageOp::kNodeFormat,
              NodeRef::FormatPayload(0, kNodeFlagRoot,
                                     kBoundLowNegInf | kBoundHighPosInf,
                                     Slice(), Slice(), kInvalidPageId),
              PageOp::kNone, "");
          cat.latch().ReleaseX();
        }
      }
      if (!s.ok()) {
        (void)txns_->Abort(action);  // first error wins
        return s;
      }
      PITREE_RETURN_IF_ERROR(txns_->Commit(action));
      PITREE_RETURN_IF_ERROR(wal_.FlushAll());
    }
  }

  catalog_ = std::make_unique<PiTree>(&ctx_, kCatalogPage);
  if (!options.inline_completion ||
      options.maintenance_sweep_interval_ms > 0) {
    maintenance_->Start();
  }
  if (options.instant_restore && options.recovery_sweeper &&
      recovery_map_->pending_pages() > 0) {
    redo_sweep_runner_.Start(std::chrono::microseconds(0));
  }
  if (options.checkpoint_interval_ms > 0 || options.checkpoint_log_bytes > 0) {
    // Poll fast enough to notice a byte-budget trip promptly; a purely
    // interval-driven configuration naps the whole interval. Start from the
    // recovered end of the log: recovery itself covers the work before it.
    checkpoint_poll_ = std::chrono::milliseconds(
        options.checkpoint_log_bytes > 0 ? 1 : options.checkpoint_interval_ms);
    last_checkpoint_begin_ = wal_.next_lsn();
    last_checkpoint_time_ = std::chrono::steady_clock::now();
    checkpoint_runner_.Start(checkpoint_poll_);
  }
  return Status::OK();
}

Database::~Database() {
  StopCheckpointer();
  redo_sweep_runner_.Stop();
  // Stop drains every queued completing action before joining the workers:
  // a clean shutdown finishes scheduled maintenance instead of losing it.
  // (Null when Init failed before constructing the service.)
  if (maintenance_ != nullptr) maintenance_->Stop();
  // Best-effort clean shutdown; recovery handles anything missed.
  (void)wal_.FlushAll();
}

Transaction* Database::Begin() { return txns_->Begin(/*is_system=*/false); }

Status Database::Commit(Transaction* txn) { return txns_->Commit(txn); }

Status Database::Abort(Transaction* txn) { return txns_->Abort(txn); }

PiTree* Database::TreeAt(PageId root) {
  MutexLock lk(&trees_mu_);
  auto it = trees_.find(root);
  if (it == trees_.end()) {
    it = trees_.emplace(root, std::make_unique<PiTree>(&ctx_, root)).first;
  }
  return it->second.get();
}

SmoTree* Database::JobTree(PageId root) {
  {
    // A TSB tree's jobs come only from its open instance, which lives here.
    MutexLock lk(&trees_mu_);
    auto it = tsb_trees_.find(root);
    if (it != tsb_trees_.end()) return it->second.get();
  }
  return TreeAt(root);
}

TsbTree* Database::TsbAt(PageId root) {
  MutexLock lk(&trees_mu_);
  auto it = tsb_trees_.find(root);
  if (it == tsb_trees_.end()) {
    it = tsb_trees_.emplace(root, std::make_unique<TsbTree>(&ctx_, root))
             .first;
  }
  return it->second.get();
}

namespace {
// Catalog values: fixed32 root page + one type byte.
constexpr uint8_t kIndexTypePiTree = 0;
constexpr uint8_t kIndexTypeTsb = 1;
}  // namespace

Status Database::LookupCatalog(const std::string& name, PageId* root,
                               uint8_t* type) {
  Transaction* txn = Begin();
  std::string value;
  Status s = catalog_->Get(txn, name, &value);
  // Catalog reads take no lasting locks; end the lookup txn either way.
  (void)Commit(txn);
  if (!s.ok()) return s;
  Slice in = value;
  uint32_t r;
  if (!GetFixed32(&in, &r) || in.size() != 1) {
    return Status::Corruption("catalog entry");
  }
  *root = r;
  *type = static_cast<uint8_t>(in[0]);
  return Status::OK();
}

namespace {
std::string EncodeCatalogValue(PageId root, uint8_t type) {
  std::string value;
  PutFixed32(&value, root);
  value.push_back(static_cast<char>(type));
  return value;
}
}  // namespace

Status Database::CreateIndex(const std::string& name, PiTree** tree) {
  Transaction* txn = Begin();
  std::string existing;
  Status s = catalog_->Get(txn, name, &existing);
  if (s.ok()) {
    (void)Abort(txn);
    return Status::InvalidArgument("index already exists: " + name);
  }
  if (!s.IsNotFound()) {
    (void)Abort(txn);
    return s;
  }
  PageId root;
  s = EngineAllocPage(&ctx_, txn, &root);
  if (s.ok()) s = PiTree::Create(&ctx_, root);
  if (s.ok()) {
    s = catalog_->Insert(txn, name,
                         EncodeCatalogValue(root, kIndexTypePiTree));
  }
  if (!s.ok()) {
    (void)Abort(txn);
    return s;
  }
  PITREE_RETURN_IF_ERROR(Commit(txn));
  *tree = TreeAt(root);
  return Status::OK();
}

Status Database::GetIndex(const std::string& name, PiTree** tree) {
  PageId root;
  uint8_t type;
  PITREE_RETURN_IF_ERROR(LookupCatalog(name, &root, &type));
  if (type != kIndexTypePiTree) {
    return Status::InvalidArgument("not a Π-tree index: " + name);
  }
  *tree = TreeAt(root);
  return Status::OK();
}

Status Database::CreateTsbIndex(const std::string& name, TsbTree** tree) {
  Transaction* txn = Begin();
  std::string existing;
  Status s = catalog_->Get(txn, name, &existing);
  if (s.ok()) {
    (void)Abort(txn);
    return Status::InvalidArgument("index already exists: " + name);
  }
  if (!s.IsNotFound()) {
    (void)Abort(txn);
    return s;
  }
  PageId root;
  s = EngineAllocPage(&ctx_, txn, &root);
  if (s.ok()) s = TsbTree::Create(&ctx_, root);
  if (s.ok()) {
    s = catalog_->Insert(txn, name, EncodeCatalogValue(root, kIndexTypeTsb));
  }
  if (!s.ok()) {
    (void)Abort(txn);
    return s;
  }
  PITREE_RETURN_IF_ERROR(Commit(txn));
  *tree = TsbAt(root);
  return Status::OK();
}

Status Database::GetTsbIndex(const std::string& name, TsbTree** tree) {
  PageId root;
  uint8_t type;
  PITREE_RETURN_IF_ERROR(LookupCatalog(name, &root, &type));
  if (type != kIndexTypeTsb) {
    return Status::InvalidArgument("not a TSB-tree index: " + name);
  }
  *tree = TsbAt(root);
  return Status::OK();
}

namespace {
// Back-off after a lazy-redo fetch that found its shard full of pins or
// failed, and the failure streak after which a walk gives up.
constexpr std::chrono::microseconds kRedoBackoff{100};
constexpr int kMaxFailureStreak = 1000;
}  // namespace

bool Database::RedoNextPending(PageId* floor, Status* s) {
  PageId pid;
  if (!recovery_map_->FirstPendingAtLeast(*floor, &pid)) {
    *floor = 0;  // entries may remain below the cursor; wrap and recheck
    if (!recovery_map_->FirstPendingAtLeast(0, &pid)) return false;
  }
  // Demand fetches race this benignly — whichever claims the frame first
  // replays; the other finds the entry gone or the page resident.
  PageHandle h;
  *s = pool_->FetchPage(pid, &h);
  if (!s->IsBusy()) *floor = pid + 1;
  return true;
}

Status Database::WaitUntilRecovered() {
  // Drive the drain directly instead of waiting on the sweeper: fetching a
  // pending page replays it (and retires the map entry) whether or not a
  // sweeper runs. Busy means the page's shard is transiently full of pins
  // — back off briefly and retry; a persistently full shard surfaces after
  // the retry budget rather than spinning forever.
  PageId floor = 0;
  int busy_streak = 0;
  Status s;
  while (RedoNextPending(&floor, &s)) {
    if (s.IsBusy()) {
      if (++busy_streak > kMaxFailureStreak) return s;
      std::this_thread::sleep_for(kRedoBackoff);
      continue;
    }
    PITREE_RETURN_IF_ERROR(s);
    busy_streak = 0;
  }
  return Status::OK();
}

BackgroundThread::Next Database::RecoverySweepStep() {
  using Next = BackgroundThread::Next;
  Status s;
  if (!RedoNextPending(&sweep_floor_, &s)) return Next::Stop();  // drained
  if (s.ok()) {
    sweep_errors_ = 0;
    return Next::After(
        std::chrono::microseconds(ctx_.options.recovery_sweep_delay_us));
  }
  // Busy: the shard is full of pins right now; let foreground traffic drain
  // it. I/O or replay fault: leave the entry for a demand fetch (which will
  // surface the error to a caller who can act on it) and move on — with
  // backoff, so a page that fails persistently doesn't turn the wrap-around
  // retry into a tight CPU loop. If every remaining page keeps failing,
  // park the sweeper; demand fetches own the residue from then on.
  if (!s.IsBusy() && ++sweep_errors_ > kMaxFailureStreak) return Next::Stop();
  return Next::After(kRedoBackoff);
}

Status Database::Checkpoint(Lsn* begin) {
  Lsn floor = 0;
  PITREE_RETURN_IF_ERROR(checkpoints_->TakeCheckpoint(begin, &floor));
  checkpoints_taken_.fetch_add(1, std::memory_order_relaxed);
  // The checkpoint is durable and published, and its sync phase made every
  // pre-snapshot page write durable too; everything recovery can need now
  // sits at or above the floor, so segments wholly below it are dead.
  return wal_.TruncateBelow(floor);
}

BackgroundThread::Next Database::CheckpointStep() {
  const auto poll = BackgroundThread::Next::After(checkpoint_poll_);
  const uint64_t interval_ms = ctx_.options.checkpoint_interval_ms;
  const uint64_t log_bytes = ctx_.options.checkpoint_log_bytes;
  const Lsn appended = wal_.next_lsn();
  if (appended <= last_checkpoint_begin_) return poll;  // no new log to cover
  const bool bytes_due =
      log_bytes > 0 && appended - last_checkpoint_begin_ >= log_bytes;
  const bool time_due =
      interval_ms > 0 &&
      std::chrono::steady_clock::now() - last_checkpoint_time_ >=
          std::chrono::milliseconds(interval_ms);
  if (!bytes_due && !time_due) return poll;
  // Write dirty pages back first so the checkpoint's DPT — and with it the
  // truncation floor — actually advances. Without writeback the oldest
  // dirty page's recLSN pins the floor forever and the WAL never shrinks.
  // A full flush is a stand-in for incremental writeback (ROADMAP item 5);
  // the checkpoint stays fuzzy either way — no quiescing, traffic keeps
  // dirtying pages while we flush.
  Lsn begin = 0;
  Status s = pool_->FlushAll();
  if (s.ok()) s = Checkpoint(&begin);
  if (s.ok()) {
    checkpoint_errors_ = 0;
    last_checkpoint_begin_ = begin;
    last_checkpoint_time_ = std::chrono::steady_clock::now();
  } else if (++checkpoint_errors_ > kMaxFailureStreak) {
    // Transient faults (possibly injected) just back off: the next step
    // re-derives everything from live state. A persistently failing
    // environment parks the checkpointer instead of spinning.
    return BackgroundThread::Next::Stop();
  }
  return poll;
}

Status Database::FlushAll() {
  // Finish queued completing actions first so their effects are in the
  // flushed image (they are hints, but a clean shutdown should not shed
  // scheduled work onto the next incarnation's traversals).
  maintenance_->Drain();
  PITREE_RETURN_IF_ERROR(wal_.FlushAll());
  return pool_->FlushAll();
}

std::vector<PiTree*> Database::SnapshotTrees() {
  std::vector<PiTree*> out;
  out.push_back(catalog_.get());
  MutexLock lk(&trees_mu_);
  for (auto& [root, tree] : trees_) out.push_back(tree.get());
  return out;
}

void Database::SweepConsolidationTask() {
  if (!ctx_.options.consolidation_enabled) return;
  const size_t batch = ctx_.options.maintenance_sweep_batch;
  if (batch == 0) return;
  for (PiTree* tree : SnapshotTrees()) {
    std::string cursor;
    {
      MutexLock lk(&maint_mu_);
      cursor = sweep_cursors_[tree->root()];
    }
    size_t examined = 0, scheduled = 0;
    tree->SweepForConsolidation(batch, &cursor, &examined, &scheduled).ok();
    maintenance_->NoteSweep(examined, scheduled);
    MutexLock lk(&maint_mu_);
    sweep_cursors_[tree->root()] = cursor;
  }
}

void Database::AuditTask() {
  const size_t samples = ctx_.options.maintenance_audit_sample;
  for (PiTree* tree : SnapshotTrees()) {
    for (size_t i = 0; i < samples; ++i) {
      std::string key;
      {
        MutexLock lk(&maint_mu_);
        for (int b = 0; b < 8; ++b) {
          key.push_back(static_cast<char>('a' + audit_rnd_.Uniform(26)));
        }
      }
      size_t nodes = 0;
      std::string report;
      Status s = tree->AuditPath(key, &nodes, &report);
      maintenance_->NoteAudit(1, nodes, s.ok() ? 0 : 1, report);
    }
  }
}

}  // namespace pitree

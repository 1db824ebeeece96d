#include "maintenance/maintenance_service.h"

#include <chrono>
#include <thread>

namespace pitree {

MaintenanceService::MaintenanceService(const Options& options)
    : workers_(options.maintenance_workers),
      retry_limit_(options.maintenance_retry_limit),
      backoff_us_(options.maintenance_retry_backoff_us),
      sweep_interval_ms_(options.maintenance_sweep_interval_ms) {
  // One shard per worker keeps same-page jobs ordered: a page id always
  // hashes to the same shard, and each shard has at most one drainer.
  size_t shards = workers_ > 0 ? workers_ : 1;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    auto q = std::make_unique<CompletionQueue>();
    q->set_capacity(options.maintenance_queue_capacity);
    q->set_dedup(options.maintenance_dedup);
    q->set_executor([this, i](const CompletionJob& job) {
      return ExecuteWithRetry(i, job);
    });
    shards_.push_back(std::move(q));
  }
}

MaintenanceService::~MaintenanceService() { Stop(); }

void MaintenanceService::set_executor(Executor fn) {
  executor_ = std::move(fn);
}

bool MaintenanceService::Submit(CompletionJob job) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  CompletionQueue& q = *shards_[ShardFor(job.address)];
  if (q.Enqueue(std::move(job)) != CompletionQueue::Admit::kQueued) {
    return false;
  }
  uint64_t depth = QueueDepth();
  uint64_t seen = max_depth_.load(std::memory_order_relaxed);
  while (depth > seen &&
         !max_depth_.compare_exchange_weak(seen, depth,
                                           std::memory_order_relaxed)) {
  }
  return true;
}

Status MaintenanceService::ExecuteWithRetry(size_t shard,
                                            const CompletionJob& job) {
  if (!executor_) return Status::OK();
  Status s = executor_(job);
  if (!s.ok() && !s.IsBusy() && !s.IsDeadlock() && !s.IsAborted()) {
    // Terminal failure (typically the env returning I/O errors). The job is
    // a hint, so shedding it is safe; count it and keep the worker alive so
    // the pool drains and shuts down sanely even on dead storage.
    failed_.fetch_add(1, std::memory_order_relaxed);
    MutexLock lk(&sweep_mu_);
    last_failure_ = s.ToString();
    return s;
  }
  if (s.IsBusy() || s.IsDeadlock() || s.IsAborted()) {
    // The action gave up on a latch/lock conflict. Without a retry the work
    // waits for the next traversal to re-detect it; with one it usually
    // lands as soon as the conflicting holder moves on.
    if (job.attempts < retry_limit_) {
      if (backoff_us_ > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(backoff_us_ << job.attempts));
      }
      CompletionJob again = job;
      ++again.attempts;
      retries_.fetch_add(1, std::memory_order_relaxed);
      shards_[shard]->Enqueue(std::move(again));
    } else {
      retries_exhausted_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return s;
}

void MaintenanceService::Start() {
  if (workers_ > 0) {
    for (auto& q : shards_) q->StartBackground();
  }
  if (sweep_interval_ms_ > 0) {
    sweep_runner_.Start(std::chrono::milliseconds(sweep_interval_ms_));
  }
}

void MaintenanceService::Stop() {
  // Sweeper first: it is a producer of new jobs.
  sweep_runner_.Stop();
  for (auto& q : shards_) q->StopBackground();  // drains each shard
  // A drained job may have scheduled follow-ups into an already-stopped
  // shard; finish those on this thread.
  Drain();
}

void MaintenanceService::Drain() {
  for (;;) {
    bool any = false;
    for (auto& q : shards_) {
      if (q->depth() > 0) {
        any = true;
        q->Drain();
      }
    }
    if (!any) return;
  }
}

std::vector<CompletionJob> MaintenanceService::TakeAll() {
  std::vector<CompletionJob> out;
  for (auto& q : shards_) {
    std::vector<CompletionJob> part = q->TakeAll();
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return out;
}

size_t MaintenanceService::QueueDepth() const {
  size_t n = 0;
  for (const auto& q : shards_) n += q->depth();
  return n;
}

void MaintenanceService::RegisterSweepTask(std::string name, SweepTask task) {
  MutexLock lk(&sweep_mu_);
  sweep_tasks_.emplace_back(std::move(name), std::move(task));
}

void MaintenanceService::RunSweepTasksOnce() {
  std::vector<std::pair<std::string, SweepTask>> tasks;
  {
    MutexLock lk(&sweep_mu_);
    tasks = sweep_tasks_;
  }
  for (auto& [name, task] : tasks) task();
  sweep_cycles_.fetch_add(1, std::memory_order_relaxed);
}

BackgroundThread::Next MaintenanceService::SweepStep() {
  RunSweepTasksOnce();
  return BackgroundThread::Next::After(
      std::chrono::milliseconds(sweep_interval_ms_));
}

void MaintenanceService::NoteSweep(size_t nodes_examined,
                                   size_t consolidations_scheduled) {
  sweep_examined_.fetch_add(nodes_examined, std::memory_order_relaxed);
  sweep_scheduled_.fetch_add(consolidations_scheduled,
                             std::memory_order_relaxed);
}

void MaintenanceService::NoteAudit(size_t paths, size_t nodes_checked,
                                   size_t violations,
                                   const std::string& report) {
  audit_paths_.fetch_add(paths, std::memory_order_relaxed);
  audit_nodes_.fetch_add(nodes_checked, std::memory_order_relaxed);
  if (violations > 0) {
    audit_violations_.fetch_add(violations, std::memory_order_relaxed);
    MutexLock lk(&sweep_mu_);
    last_audit_violation_ = report;
  }
}

MaintenanceStats MaintenanceService::StatsSnapshot() const {
  MaintenanceStats s;
  for (const auto& q : shards_) {
    s.admitted += q->enqueued_count();
    s.deduped += q->deduped_count();
    s.dropped += q->dropped_count();
    s.executed += q->executed_count();
    s.queue_depth += q->depth();
  }
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.retries_exhausted = retries_exhausted_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.max_queue_depth = max_depth_.load(std::memory_order_relaxed);
  s.sweep_cycles = sweep_cycles_.load(std::memory_order_relaxed);
  s.sweep_nodes_examined = sweep_examined_.load(std::memory_order_relaxed);
  s.sweep_consolidations_scheduled =
      sweep_scheduled_.load(std::memory_order_relaxed);
  s.audit_paths_sampled = audit_paths_.load(std::memory_order_relaxed);
  s.audit_nodes_checked = audit_nodes_.load(std::memory_order_relaxed);
  s.audit_violations = audit_violations_.load(std::memory_order_relaxed);
  return s;
}

std::string MaintenanceService::last_audit_violation() const {
  MutexLock lk(&sweep_mu_);
  return last_audit_violation_;
}

std::string MaintenanceService::last_failure() const {
  MutexLock lk(&sweep_mu_);
  return last_failure_;
}

}  // namespace pitree

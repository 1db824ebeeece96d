#ifndef PITREE_MAINTENANCE_MAINTENANCE_SERVICE_H_
#define PITREE_MAINTENANCE_MAINTENANCE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/background.h"
#include "common/mutex.h"
#include "common/options.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "pitree/completion.h"

namespace pitree {

/// Counter snapshot for the maintenance subsystem. Plain integers: callers
/// read a consistent-enough view without holding any service lock.
struct MaintenanceStats {
  // Completion scheduling.
  uint64_t submitted = 0;   // jobs offered by traversals / sweeps
  uint64_t admitted = 0;    // jobs accepted into a shard queue
  uint64_t deduped = 0;     // suppressed: identical job already queued
  uint64_t dropped = 0;     // rejected: shard at capacity (safe, §5.1)
  uint64_t executed = 0;    // jobs run (any outcome)
  uint64_t retries = 0;     // re-queued after a latch/lock conflict
  uint64_t retries_exhausted = 0;
  uint64_t failed = 0;       // terminal non-conflict errors (e.g. env I/O
                             // faults); the job is shed, not retried — safe
                             // for hints, and the worker keeps running
  uint64_t queue_depth = 0;      // currently queued, all shards
  uint64_t max_queue_depth = 0;  // high-water mark of queue_depth
  // Periodic sweeps.
  uint64_t sweep_cycles = 0;
  uint64_t sweep_nodes_examined = 0;
  uint64_t sweep_consolidations_scheduled = 0;
  // Online well-formedness auditing.
  uint64_t audit_paths_sampled = 0;
  uint64_t audit_nodes_checked = 0;
  uint64_t audit_violations = 0;
};

/// The Database-owned home for all background structure-modification work.
///
/// The paper makes completing atomic actions *hints*: idempotent, droppable,
/// executable by anyone (§5.1). This service exploits every one of those
/// freedoms:
///  - jobs are sharded by target page id across N bounded queues, each
///    drained by its own worker, so postings on different subtrees proceed
///    in parallel while jobs for the same page stay FIFO;
///  - duplicates — the common case under write contention, where every
///    traversal crossing the same unposted side pointer re-detects the same
///    work — are collapsed at admission;
///  - each shard is capacity-bounded with a drop-and-count policy
///    (backpressure): a dropped job is re-detected by the next traversal;
///  - a job that terminates on a latch/lock conflict is retried with
///    exponential backoff instead of being lost until re-detection;
///  - a low-priority sweeper periodically runs registered tasks; Database
///    registers an idle-consolidation scanner (§3.3) and an online
///    well-formedness auditor (§2.1.3) over every open tree.
class MaintenanceService {
 public:
  using Executor = std::function<Status(const CompletionJob&)>;
  using SweepTask = std::function<void()>;

  explicit MaintenanceService(const Options& options);
  ~MaintenanceService();
  MaintenanceService(const MaintenanceService&) = delete;
  MaintenanceService& operator=(const MaintenanceService&) = delete;

  /// Must be set before any Submit/Drain/Start.
  void set_executor(Executor fn);

  /// Offers a completing atomic action. Returns true when the job was
  /// queued, false when it was collapsed into a queued duplicate or dropped
  /// for capacity — both safe outcomes for a hint.
  bool Submit(CompletionJob job);

  /// Starts the worker pool (one worker per shard; none when the service
  /// was configured with maintenance_workers == 0) and, when a sweep
  /// interval is configured, the sweeper. Both run on BackgroundThread.
  void Start();

  /// Stops the sweeper and the workers, then drains every queued job on
  /// the calling thread. Queued completing actions survive a clean
  /// shutdown; only a crash loses them, which §5.1 makes safe.
  void Stop();

  /// Executes queued jobs on the calling thread until all shards are empty
  /// (including follow-up jobs scheduled by the drained ones).
  void Drain();

  /// Removes and returns all queued jobs without executing them.
  std::vector<CompletionJob> TakeAll();

  size_t QueueDepth() const;

  /// Sweep framework: tasks run in registration order, once per cycle.
  void RegisterSweepTask(std::string name, SweepTask task);

  /// Runs one sweep cycle on the calling thread (deterministic tests and
  /// manual triggering; also what the sweeper runs per period).
  void RunSweepTasksOnce();

  /// Sweep tasks report their work through these.
  void NoteSweep(size_t nodes_examined, size_t consolidations_scheduled);
  void NoteAudit(size_t paths, size_t nodes_checked, size_t violations,
                 const std::string& report);

  MaintenanceStats StatsSnapshot() const;

  /// Description of the most recent invariant violation the auditor saw
  /// (empty if none ever).
  std::string last_audit_violation() const;

  /// Status message of the most recent terminal job failure (empty if none);
  /// lets a failing-storage test see what the workers ran into.
  std::string last_failure() const;

 private:
  size_t ShardFor(PageId address) const {
    return static_cast<size_t>(address) % shards_.size();
  }
  Status ExecuteWithRetry(size_t shard, const CompletionJob& job);
  /// The sweeper's step: one sweep cycle, then nap for the interval.
  BackgroundThread::Next SweepStep();

  const size_t workers_;
  const size_t retry_limit_;
  const size_t backoff_us_;
  const size_t sweep_interval_ms_;
  Executor executor_;
  std::vector<std::unique_ptr<CompletionQueue>> shards_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> retries_exhausted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> max_depth_{0};
  std::atomic<uint64_t> sweep_cycles_{0};
  std::atomic<uint64_t> sweep_examined_{0};
  std::atomic<uint64_t> sweep_scheduled_{0};
  std::atomic<uint64_t> audit_paths_{0};
  std::atomic<uint64_t> audit_nodes_{0};
  std::atomic<uint64_t> audit_violations_{0};

  mutable Mutex sweep_mu_;  // tasks, last reports
  std::vector<std::pair<std::string, SweepTask>> sweep_tasks_
      GUARDED_BY(sweep_mu_);
  std::string last_audit_violation_ GUARDED_BY(sweep_mu_);
  std::string last_failure_ GUARDED_BY(sweep_mu_);
  BackgroundThread sweep_runner_{[this] { return SweepStep(); }};
};

}  // namespace pitree

#endif  // PITREE_MAINTENANCE_MAINTENANCE_SERVICE_H_

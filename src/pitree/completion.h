#ifndef PITREE_PITREE_COMPLETION_H_
#define PITREE_PITREE_COMPLETION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/background.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "pitree/path.h"

namespace pitree {

/// A completing atomic action scheduled during normal processing (§5.1):
/// either the posting of an index term for a node reached via a side
/// pointer, or the consolidation of an under-utilized node. Jobs are hints:
/// executing one re-tests the tree state and terminates harmlessly when the
/// work was already done or is no longer needed (idempotence, §5.1).
struct CompletionJob {
  enum class Kind : uint8_t { kPostIndexTerm, kConsolidate };
  Kind kind = Kind::kPostIndexTerm;
  PageId tree_root = kInvalidPageId;
  uint8_t level = 0;       // level where the index term is to be posted, or
                           // the parent level for a consolidation
  PageId address = kInvalidPageId;  // new sibling node / under-utilized node
  uint8_t attempts = 0;    // retry count (MaintenanceService backoff)
  std::string key;         // the search key that exposed the work
  SavedPath path;          // remembered path (verified before trust, §5.2)
};

/// Queue of completing atomic actions with an optional background worker
/// (a BackgroundThread whose step runs one job).
/// In inline mode (Options::inline_completion) trees execute their own
/// pending jobs at the end of each operation and this queue is bypassed.
///
/// Because jobs are hints (§5.1), the queue may both *collapse duplicates*
/// (two traversals crossing the same unposted side pointer describe the
/// same work) and *drop* jobs when a capacity bound is hit (the next
/// traversal to cross the pointer re-detects and re-schedules the work).
/// Both policies are off by default; MaintenanceService turns them on.
class CompletionQueue {
 public:
  /// Executors return the job's outcome; the queue itself treats every
  /// outcome as final (retry policy lives in the caller's executor).
  using Executor = std::function<Status(const CompletionJob&)>;

  /// Outcome of Enqueue under the dedup / capacity policies.
  enum class Admit : uint8_t { kQueued, kDuplicate, kDropped };

  CompletionQueue() = default;
  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  void set_executor(Executor fn) { executor_ = std::move(fn); }

  /// Bounds the number of queued jobs; Enqueue drops beyond it. 0 = no bound.
  void set_capacity(size_t cap) { capacity_ = cap; }

  /// Suppresses jobs whose (kind, level, address) matches a queued job.
  void set_dedup(bool on) { dedup_ = on; }

  Admit Enqueue(CompletionJob job);

  /// Runs queued jobs on the calling thread until the queue is empty.
  void Drain();

  /// Removes and returns every queued job without executing it (benchmarks
  /// use this to replay completions under controlled conditions; crash
  /// simulations use it to model the queue's volatility).
  std::vector<CompletionJob> TakeAll();

  /// Starts/stops a background worker thread that drains continuously.
  /// StopBackground stops the worker, then drains every queued job on the
  /// calling thread: queued completing actions survive a *clean* shutdown
  /// (only a crash may lose them, which is safe — recovery-time traversals
  /// re-detect the work).
  void StartBackground() { runner_.Start(std::chrono::microseconds(0)); }
  void StopBackground();

  uint64_t enqueued_count() const { return enqueued_.load(); }
  uint64_t executed_count() const { return executed_.load(); }
  uint64_t deduped_count() const { return deduped_.load(); }
  uint64_t dropped_count() const { return dropped_.load(); }

  /// Number of jobs currently queued.
  size_t depth() const;

 private:
  static uint64_t DedupKey(const CompletionJob& job) {
    return (static_cast<uint64_t>(job.kind) << 40) |
           (static_cast<uint64_t>(job.level) << 32) |
           static_cast<uint64_t>(job.address);
  }

  /// Pops and runs the front job. False when the queue is empty.
  bool RunOne();
  /// The worker's step: one job, or sleep until Enqueue wakes it.
  BackgroundThread::Next WorkerStep();

  Executor executor_;
  mutable Mutex mu_;
  std::deque<CompletionJob> queue_ GUARDED_BY(mu_);
  /// Dedup index over queue_.
  std::unordered_set<uint64_t> keys_ GUARDED_BY(mu_);
  size_t capacity_ = 0;
  bool dedup_ = false;
  std::atomic<uint64_t> enqueued_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> deduped_{0};
  std::atomic<uint64_t> dropped_{0};
  /// Last member, so destroyed (stopped) first. Only StopBackground()
  /// drains; jobs left in a destroyed queue are hints (§5.1).
  BackgroundThread runner_{[this] { return WorkerStep(); }};
};

}  // namespace pitree

#endif  // PITREE_PITREE_COMPLETION_H_

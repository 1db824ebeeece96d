#include "pitree/completion.h"

namespace pitree {

CompletionQueue::Admit CompletionQueue::Enqueue(CompletionJob job) {
  {
    MutexLock lk(&mu_);
    if (capacity_ != 0 && queue_.size() >= capacity_) {
      // Dropping is safe: the job is a hint, and the next traversal that
      // crosses the still-unposted side pointer re-schedules it (§5.1).
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return Admit::kDropped;
    }
    if (dedup_ && !keys_.insert(DedupKey(job)).second) {
      deduped_.fetch_add(1, std::memory_order_relaxed);
      return Admit::kDuplicate;
    }
    queue_.push_back(std::move(job));
  }
  enqueued_.fetch_add(1, std::memory_order_relaxed);
  runner_.Wake();
  return Admit::kQueued;
}

bool CompletionQueue::RunOne() {
  CompletionJob job;
  {
    MutexLock lk(&mu_);
    if (queue_.empty()) return false;
    job = std::move(queue_.front());
    queue_.pop_front();
    // The dedup window closes at dequeue, not at completion: once execution
    // begins, a freshly detected identical job reflects a *new* observation
    // of the tree and must be admitted again.
    if (dedup_) keys_.erase(DedupKey(job));
  }
  if (executor_) executor_(job).ok();
  executed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void CompletionQueue::Drain() {
  while (RunOne()) {
  }
}

std::vector<CompletionJob> CompletionQueue::TakeAll() {
  MutexLock lk(&mu_);
  std::vector<CompletionJob> out(std::make_move_iterator(queue_.begin()),
                                 std::make_move_iterator(queue_.end()));
  queue_.clear();
  keys_.clear();
  return out;
}

size_t CompletionQueue::depth() const {
  MutexLock lk(&mu_);
  return queue_.size();
}

void CompletionQueue::StopBackground() {
  runner_.Stop();
  // A clean stop never discards scheduled completing actions.
  Drain();
}

BackgroundThread::Next CompletionQueue::WorkerStep() {
  return RunOne() ? BackgroundThread::Next::After(std::chrono::microseconds(0))
                  : BackgroundThread::Next::Sleep();
}

}  // namespace pitree

#include "common/background.h"

namespace pitree {

void BackgroundThread::Start(std::chrono::microseconds first_wait) {
  MutexLock lk(&mu_);
  if (thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread([this, first_wait] { Run(first_wait); });
}

void BackgroundThread::Wake() {
  MutexLock lk(&mu_);
  woken_ = true;
  cv_.NotifyOne();
}

void BackgroundThread::Stop() {
  std::thread thread;
  {
    MutexLock lk(&mu_);
    stop_ = true;
    thread = std::move(thread_);
  }
  cv_.NotifyOne();
  if (thread.joinable()) thread.join();
}

void BackgroundThread::Run(std::chrono::microseconds first_wait) {
  ReleasableMutexLock lk(&mu_);
  for (Next next = Next::After(first_wait); next.kind != Next::Kind::kStop;) {
    const auto deadline = std::chrono::steady_clock::now() + next.wait;
    while (!stop_ && !woken_) {
      if (next.kind == Next::Kind::kSleep) {
        cv_.Wait(mu_);
      } else if (std::chrono::steady_clock::now() >= deadline ||
                 cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout) {
        break;
      }
    }
    if (stop_) return;
    // Consumed before the step runs: a Wake() during the step sets it again.
    woken_ = false;
    lk.Unlock();
    next = step_();
    lk.Lock();
  }
}

}  // namespace pitree

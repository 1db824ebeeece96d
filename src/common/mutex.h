#ifndef PITREE_COMMON_MUTEX_H_
#define PITREE_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "analysis/latch_checker.h"
#include "analysis/latch_id.h"
#include "common/thread_annotations.h"

namespace pitree {

/// The engine's mutex: std::mutex plus
///  - a clang thread-safety CAPABILITY, so GUARDED_BY/REQUIRES
///    annotations against it are statically checked (DESIGN.md §16), and
///  - an optional §4.1 acquisition rank, integrating the mutex with the
///    runtime latch-protocol checker (src/analysis/) exactly the way the
///    hand-rolled ShardLock/MuLock guards used to: a ranked Lock() runs the
///    try-then-block dance so the checker can order-check and register the
///    wait before the thread parks. Unranked mutexes (leaf bookkeeping
///    locks that never nest around latches) skip the checker entirely,
///    matching their previous uninstrumented behavior.
///
/// All methods compile to plain lock()/unlock() in release builds.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(analysis::Rank rank) : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    if (analysis::kEnabled && rank_ != analysis::Rank::kUnranked) {
      analysis::OnMutexAcquiring(&mu_, rank_);
      if (!mu_.try_lock()) {
        analysis::OnMutexBlocked(&mu_, rank_);
        mu_.lock();
      }
      analysis::OnMutexAcquired(&mu_, rank_);
    } else {
      mu_.lock();
    }
  }

  bool TryLock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    if (analysis::kEnabled && rank_ != analysis::Rank::kUnranked) {
      // Try-acquires skip the order check (a no-wait probe cannot
      // deadlock) but record the hold, mirroring Latch::TryAcquire*.
      analysis::OnMutexAcquired(&mu_, rank_);
    }
    return true;
  }

  void Unlock() RELEASE() {
    if (analysis::kEnabled && rank_ != analysis::Rank::kUnranked) {
      analysis::OnMutexReleased(&mu_, rank_);
    }
    mu_.unlock();
  }

  /// Static-only assertion that the calling thread holds this mutex, for
  /// code that provably holds it via a path the analysis cannot follow.
  void AssertHeld() ASSERT_CAPABILITY(this) {}

  analysis::Rank rank() const { return rank_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  const analysis::Rank rank_ = analysis::Rank::kUnranked;
};

/// Scoped lock: acquires at construction, releases at scope exit.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Scoped lock with manual Unlock()/Lock() spans, for the engine's
/// drop-the-mutex-across-I/O idiom. The destructor releases only if held.
class SCOPED_CAPABILITY ReleasableMutexLock {
 public:
  explicit ReleasableMutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~ReleasableMutexLock() RELEASE() {
    if (held_) mu_->Unlock();
  }
  ReleasableMutexLock(const ReleasableMutexLock&) = delete;
  ReleasableMutexLock& operator=(const ReleasableMutexLock&) = delete;

  void Unlock() RELEASE() {
    held_ = false;
    mu_->Unlock();
  }

  void Lock() ACQUIRE() {
    mu_->Lock();
    held_ = true;
  }

  bool held() const { return held_; }

 private:
  Mutex* const mu_;
  bool held_ = true;
};

/// Condition variable for pitree::Mutex. Wait() adopts the caller's hold
/// for the duration of the underlying std::condition_variable wait, so the
/// fast path stays a plain std::condition_variable (no condition_variable_any
/// overhead) and the §4.1 checker's view is unchanged: the waiting thread
/// keeps its recorded hold across the wait, exactly as the old
/// `cv.wait(lk)` sites behaved ("the mutex is reacquired before wait
/// returns, and the sleeping thread runs no I/O").
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();
  }

  template <typename Rep, typename Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& dur)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    const std::cv_status st = cv_.wait_for(lk, dur);
    lk.release();
    return st;
  }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(Mutex& mu,
                           const std::chrono::time_point<Clock, Duration>& tp)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    const std::cv_status st = cv_.wait_until(lk, tp);
    lk.release();
    return st;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace pitree

#endif  // PITREE_COMMON_MUTEX_H_

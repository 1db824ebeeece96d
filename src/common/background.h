#ifndef PITREE_COMMON_BACKGROUND_H_
#define PITREE_COMMON_BACKGROUND_H_

#include <chrono>
#include <functional>
#include <thread>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace pitree {

/// The engine's one background-thread lifecycle (DESIGN.md §7): a thread
/// that calls a *step* over and over, each step returning what comes next.
/// The step runs with no runner lock held. Every wait between steps is on
/// the runner's condition variable, so Stop() cuts it short, and a Wake()
/// that arrives while a step runs ends the next wait at once (none is lost).
class BackgroundThread {
 public:
  struct Next {
    enum class Kind { kWait, kSleep, kStop } kind;
    std::chrono::microseconds wait;  // kWait only

    /// Run the next step after `wait` (0 = at once), or when woken.
    static Next After(std::chrono::microseconds wait) {
      return {Kind::kWait, wait};
    }
    /// Run the next step when woken.
    static Next Sleep() { return {Kind::kSleep, {}}; }
    /// End the thread (Stop() still joins it).
    static Next Stop() { return {Kind::kStop, {}}; }
  };

  explicit BackgroundThread(std::function<Next()> step)
      : step_(std::move(step)) {}
  ~BackgroundThread() { Stop(); }
  BackgroundThread(const BackgroundThread&) = delete;
  BackgroundThread& operator=(const BackgroundThread&) = delete;

  /// Starts the thread; the first step runs after `first_wait`. A no-op
  /// while a thread exists, so a restart needs Stop() first.
  void Start(std::chrono::microseconds first_wait);
  /// Ends the current wait, or the next one if a step is running.
  void Wake();
  /// Idempotent and a no-op before Start(); returns once the in-flight
  /// step has finished and the thread has exited.
  void Stop();

 private:
  void Run(std::chrono::microseconds first_wait);

  const std::function<Next()> step_;
  Mutex mu_;
  CondVar cv_;
  std::thread thread_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  bool woken_ GUARDED_BY(mu_) = false;
};

}  // namespace pitree

#endif  // PITREE_COMMON_BACKGROUND_H_

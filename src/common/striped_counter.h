#ifndef PITREE_COMMON_STRIPED_COUNTER_H_
#define PITREE_COMMON_STRIPED_COUNTER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace pitree {

/// A statistics counter for hot paths that many threads bump at once.
///
/// One shared atomic serializes every incrementing thread on its cacheline
/// (the optimistic read path bumps its counters once per tree level).
/// Here each thread adds to one of kStripes padded slots, one cacheline
/// each as in EpochManager::Slot, chosen round-robin at the thread's first
/// use; load() sums the slots. The total is exact once the incrementing
/// threads have stopped; a concurrent load() sees some prefix of each
/// slot's additions, as with a relaxed load of a single atomic.
///
/// The interface is the subset of std::atomic<uint64_t> its users call,
/// so a counter field can switch between the two without touching readers.
class StripedCounter {
 public:
  static constexpr size_t kStripes = 16;

  void fetch_add(uint64_t n, std::memory_order order) {
    slots_[ThreadStripe()].value.fetch_add(n, order);
  }

  uint64_t load() const {
    uint64_t sum = 0;
    for (const Slot& s : slots_) sum += s.value.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> value{0};
  };

  static size_t ThreadStripe() {
    static std::atomic<size_t> next{0};
    thread_local const size_t stripe =
        next.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return stripe;
  }

  Slot slots_[kStripes];
};

}  // namespace pitree

#endif  // PITREE_COMMON_STRIPED_COUNTER_H_

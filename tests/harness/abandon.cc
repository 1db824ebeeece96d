#include "harness/abandon.h"

#include <mutex>
#include <utility>
#include <vector>

namespace pitree {
namespace harness {

void AbandonCrashed(std::unique_ptr<Database> db) {
  static std::mutex mu;
  // Never destroyed: the abandoned databases must outlive every test.
  static auto* abandoned = new std::vector<std::unique_ptr<Database>>();
  std::lock_guard<std::mutex> lk(mu);
  abandoned->push_back(std::move(db));
}

}  // namespace harness
}  // namespace pitree

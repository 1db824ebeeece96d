#ifndef PITREE_TESTS_HARNESS_ABANDON_H_
#define PITREE_TESTS_HARNESS_ABANDON_H_

#include <memory>

#include "db/database.h"

namespace pitree {
namespace harness {

/// Abandons a Database after a simulated crash, as a real crash would: its
/// destructor never runs (it would flush post-crash state into the
/// simulated disk). The object stays reachable from a process-lifetime
/// list, so LeakSanitizer reports real leaks instead of every crash test.
void AbandonCrashed(std::unique_ptr<Database> db);

}  // namespace harness
}  // namespace pitree

#endif  // PITREE_TESTS_HARNESS_ABANDON_H_

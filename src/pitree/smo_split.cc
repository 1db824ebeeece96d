// The B-link tree's split hooks (pitree/smo.h): the median split and the
// §4.2.1 test for a split that moves the updating transaction's records.
#include "pitree/pi_tree.h"
#include "txn/lock_manager.h"

namespace pitree {

Status PiTree::SplitNode(Transaction* txn, PageHandle& h,
                         PageId* new_sibling) {
  NodeRef node(h.data());
  if (node.entry_count() < 2) {
    return Status::NoSpace("node too small to split (oversized record?)");
  }
  // Partition the directly contained space (§3.2.1 step 2) at the median.
  int split_slot = static_cast<int>(node.entry_count()) / 2;
  if (split_slot < 1) split_slot = 1;
  if (split_slot >= node.entry_count()) split_slot = node.entry_count() - 1;
  std::string split_key = node.EntryKey(split_slot).ToString();
  return SplitOffRight(txn, h, split_key, node.EntriesFrom(split_key),
                       new_sibling);
}

bool PiTree::MovesOwnRecords(Transaction* user, const NodeRef& leaf) const {
  if (leaf.entry_count() < 2) return false;
  // The same median slot SplitNode picks.
  int split_slot = static_cast<int>(leaf.entry_count()) / 2;
  if (split_slot < 1) split_slot = 1;
  for (const auto& e : leaf.EntriesFrom(leaf.EntryKey(split_slot))) {
    auto it = user->held_locks.find(RecordLockName(root_, e.key));
    if (it != user->held_locks.end() &&
        (it->second == LockMode::kX || it->second == LockMode::kU)) {
      return true;
    }
  }
  return false;
}

}  // namespace pitree

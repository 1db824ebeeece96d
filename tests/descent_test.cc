// Tests for the Π-tree traversal kernel (pitree/descent.h) through the three
// tree instances that run it:
//  - every error exit of a descent releases the latches it holds: after an
//    I/O error fetching the next node, the current node must be free
//    (PageHandle only unpins, and a leaked latch hangs the next root split
//    or posting);
//  - model checks of the B-link tree against std::map and of the TSB-tree
//    against a per-key version list, on a pool small enough that reads are
//    answered by both the optimistic form and the latched fallback.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "db/database.h"
#include "engine/page_alloc.h"
#include "env/fault_plan.h"
#include "env/sim_env.h"
#include "mdtree/md_tree.h"
#include "pitree/pi_tree.h"
#include "tsb/tsb_tree.h"

namespace pitree {
namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key%08d", i);
  return buf;
}

std::string Value(int i) {
  return std::string(100, static_cast<char>('a' + i % 26));
}

// ---------------------------------------------------------------------------
// Latch release on descent errors
// ---------------------------------------------------------------------------

/// A database that is built, closed and reopened, so the pool starts cold:
/// only what a test fetches explicitly is resident.
class DescentErrorTest : public ::testing::Test {
 protected:
  void Open() {
    Options opts;
    opts.fault_plan = &plan_;
    ASSERT_TRUE(Database::Open(opts, &env_, "db", &db_).ok());
  }

  void Reopen() {
    ASSERT_TRUE(db_->FlushAll().ok());
    ASSERT_TRUE(db_->Checkpoint().ok());
    db_.reset();
    Open();
  }

  /// Makes `root` resident and arms a one-shot failure of the next data-file
  /// read: the descent's first miss is then the fetch of a root child.
  void FailNextChildFetch(PageId root) {
    PageHandle h;
    ASSERT_TRUE(db_->context()->pool->FetchPage(root, &h).ok());
    h.Reset();
    plan_.FailNth(FaultOp::kRead, plan_.op_count(FaultOp::kRead),
                  Status::IOError("injected"), /*sticky=*/false, ".db");
  }

  /// One read in its own transaction.
  template <class Read>
  Status InTxn(Read read) {
    Transaction* txn = db_->Begin();
    Status s = read(txn);
    EXPECT_TRUE(db_->Commit(txn).ok());
    return s;
  }

  /// True when no latch on `root` is held: an X latch can be taken now.
  bool RootUnlatched(PageId root) {
    PageHandle h;
    EXPECT_TRUE(db_->context()->pool->FetchPage(root, &h).ok());
    if (!h.valid()) return false;
    if (!h.latch().TryAcquireX()) {
      // The descent leaked its S latch on the root; release it so teardown
      // (which flushes under latches) cannot hang behind it.
      h.latch().ReleaseS();
      return false;
    }
    h.latch().ReleaseX();
    return true;
  }

  FaultPlan plan_;
  SimEnv env_;
  std::unique_ptr<Database> db_;
};

TEST_F(DescentErrorTest, PiTreeGetReleasesLatchesOnReadError) {
  Open();
  PiTree* tree = nullptr;
  ASSERT_TRUE(db_->CreateIndex("t", &tree).ok());
  for (int batch = 0; batch < 60; ++batch) {
    Transaction* txn = db_->Begin();
    for (int i = batch * 1000; i < (batch + 1) * 1000; ++i) {
      ASSERT_TRUE(tree->Insert(txn, Key(i), Value(i)).ok());
    }
    ASSERT_TRUE(db_->Commit(txn).ok());
  }
  Reopen();
  ASSERT_TRUE(db_->GetIndex("t", &tree).ok());
  FailNextChildFetch(tree->root());
  std::string v;
  auto get = [&](Transaction* txn) { return tree->Get(txn, Key(0), &v); };
  Status s = InTxn(get);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_TRUE(RootUnlatched(tree->root()));
  // With the fault spent the same read succeeds, and writes that latch the
  // root in U/X still make progress.
  ASSERT_TRUE(InTxn(get).ok());
  EXPECT_EQ(v, Value(0));
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(tree->Insert(txn, Key(60000), Value(1)).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
}

TEST_F(DescentErrorTest, TsbGetAsOfReleasesLatchesOnReadError) {
  Open();
  TsbTree* tree = nullptr;
  ASSERT_TRUE(db_->CreateTsbIndex("t", &tree).ok());
  for (int batch = 0; batch < 10; ++batch) {
    Transaction* txn = db_->Begin();
    for (int i = batch * 500; i < (batch + 1) * 500; ++i) {
      ASSERT_TRUE(tree->Put(txn, Key(i), Value(i)).ok());
    }
    ASSERT_TRUE(db_->Commit(txn).ok());
  }
  Reopen();
  ASSERT_TRUE(db_->GetTsbIndex("t", &tree).ok());
  FailNextChildFetch(tree->root());
  std::string v;
  auto get = [&](Transaction* txn) {
    return tree->GetAsOf(txn, Key(0), kTsbTimeMax, &v);
  };
  Status s = InTxn(get);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_TRUE(RootUnlatched(tree->root()));
  ASSERT_TRUE(InTxn(get).ok());
  EXPECT_EQ(v, Value(0));
}

TEST_F(DescentErrorTest, MdGetReleasesLatchesOnReadError) {
  Open();
  PageId root = kInvalidPageId;
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(EngineAllocPage(db_->context(), txn, &root).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  ASSERT_TRUE(MdTree::Create(db_->context(), root).ok());
  auto tree = std::make_unique<MdTree>(db_->context(), root);
  Random rnd(7);
  std::vector<std::pair<uint32_t, uint32_t>> points;
  for (int i = 0; i < 3000; ++i) {
    uint32_t x = static_cast<uint32_t>(rnd.Uniform(1u << 20));
    uint32_t y = static_cast<uint32_t>(rnd.Uniform(1u << 20));
    txn = db_->Begin();
    Status s = tree->Insert(txn, x, y, Value(i));
    if (s.ok()) {
      ASSERT_TRUE(db_->Commit(txn).ok());
      points.emplace_back(x, y);
    } else {
      ASSERT_TRUE(db_->Abort(txn).ok());
    }
  }
  tree.reset();
  Reopen();
  tree = std::make_unique<MdTree>(db_->context(), root);
  FailNextChildFetch(root);
  std::string v;
  auto get = [&](Transaction* t) {
    return tree->Get(t, points[0].first, points[0].second, &v);
  };
  Status s = InTxn(get);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_TRUE(RootUnlatched(root));
  ASSERT_TRUE(InTxn(get).ok());
  EXPECT_EQ(v, Value(0));
}

// ---------------------------------------------------------------------------
// Model checks: both descent forms against simple models
// ---------------------------------------------------------------------------

/// A pool far smaller than the trees, and postings left queued (no workers,
/// so side pointers stay uncrossed by index terms): reads are answered
/// optimistically when their path is resident and by the latched fallback
/// when it is not, and both forms cross side pointers.
Options SmallPoolOptions() {
  Options opts;
  opts.buffer_pool_pages = 64;
  opts.inline_completion = false;
  opts.maintenance_workers = 0;
  return opts;
}

TEST(DescentModelTest, PiTreeAgreesWithMap) {
  SimEnv env;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(SmallPoolOptions(), &env, "db", &db).ok());
  PiTree* tree = nullptr;
  ASSERT_TRUE(db->CreateIndex("t", &tree).ok());
  std::map<std::string, std::string> model;
  Random rnd(301);
  const int kKeys = 8000;
  for (int op = 0; op < 40000; ++op) {
    const std::string key = Key(static_cast<int>(rnd.Uniform(kKeys)));
    const std::string value = Value(op) + std::to_string(op);
    const bool present = model.count(key) > 0;
    Transaction* txn = db->Begin();
    switch (rnd.Uniform(4)) {
      case 0: {
        Status s = tree->Insert(txn, key, value);
        ASSERT_EQ(s.ok(), !present) << s.ToString();
        if (s.ok()) model[key] = value;
        break;
      }
      case 1: {
        Status s = tree->Update(txn, key, value);
        ASSERT_EQ(s.ok(), present) << s.ToString();
        if (s.ok()) model[key] = value;
        break;
      }
      case 2: {
        Status s = tree->Delete(txn, key);
        ASSERT_EQ(s.ok(), present) << s.ToString();
        if (s.ok()) model.erase(key);
        break;
      }
      default: {
        std::string got;
        Status s = tree->Get(txn, key, &got);
        ASSERT_EQ(s.ok(), present) << key << ": " << s.ToString();
        if (present) {
          ASSERT_EQ(got, model[key]) << key;
        }
        break;
      }
    }
    ASSERT_TRUE(db->Commit(txn).ok());
  }
  // Every key, present or not, agrees with the model.
  for (int i = 0; i < kKeys; ++i) {
    std::string got;
    Status s = tree->Get(nullptr, Key(i), &got);
    auto it = model.find(Key(i));
    ASSERT_EQ(s.ok(), it != model.end()) << Key(i) << ": " << s.ToString();
    if (it != model.end()) {
      ASSERT_EQ(got, it->second);
    }
  }
  const PiTreeStats& st = tree->stats();
  EXPECT_GT(st.optimistic_gets.load(), 0u);
  EXPECT_GT(st.optimistic_fallbacks.load(), 0u);
  EXPECT_GT(st.side_traversals.load(), 0u);
  std::string report;
  EXPECT_TRUE(tree->CheckWellFormed(&report).ok()) << report;
}

/// One key's versions, oldest first: (time, value), tombstones as nullopt.
using VersionList =
    std::vector<std::pair<TsbTime, std::optional<std::string>>>;

/// The model's answer for `key` as of `t`: the newest version at or before
/// `t`, absent when there is none or it is a tombstone.
const std::string* ModelAsOf(const std::map<std::string, VersionList>& model,
                             const std::string& key, TsbTime t) {
  auto it = model.find(key);
  if (it == model.end()) return nullptr;
  const std::string* answer = nullptr;
  for (const auto& [vt, value] : it->second) {
    if (vt > t) break;
    answer = value ? &*value : nullptr;
  }
  return answer;
}

TEST(DescentModelTest, TsbTreeAgreesWithVersionModel) {
  SimEnv env;
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(SmallPoolOptions(), &env, "db", &db).ok());
  TsbTree* tree = nullptr;
  ASSERT_TRUE(db->CreateTsbIndex("t", &tree).ok());
  std::map<std::string, VersionList> model;
  std::vector<TsbTime> times;  // every version time written, ascending
  Random rnd(17);
  const int kKeys = 1500;
  auto check = [&](const std::string& key, TsbTime t) {
    const std::string* want = ModelAsOf(model, key, t);
    std::string got;
    Transaction* txn = db->Begin();
    Status s = tree->GetAsOf(txn, key, t, &got);
    ASSERT_TRUE(db->Commit(txn).ok());
    ASSERT_EQ(s.ok(), want != nullptr) << key << "@" << t << ": "
                                       << s.ToString();
    if (want != nullptr) {
      ASSERT_EQ(got, *want) << key << "@" << t;
    }
    got.clear();
    s = tree->SnapshotGet(key, t, &got);
    ASSERT_EQ(s.ok(), want != nullptr) << key << "@" << t << ": "
                                       << s.ToString();
    if (want != nullptr) {
      ASSERT_EQ(got, *want) << key << "@" << t;
    }
  };
  for (int op = 0; op < 20000; ++op) {
    const std::string key = Key(static_cast<int>(rnd.Uniform(kKeys)));
    if (rnd.Uniform(3) == 0 && !times.empty()) {
      // A read as of a random past time, or as of now.
      TsbTime t = rnd.Uniform(4) == 0 ? kTsbTimeMax
                                      : times[rnd.Uniform(times.size())];
      ASSERT_NO_FATAL_FAILURE(check(key, t));
      continue;
    }
    const bool erase = rnd.Uniform(5) == 0;
    const std::string value = Value(op) + std::to_string(op);
    const TsbTime t = tree->Now();
    Transaction* txn = db->Begin();
    Status s = erase ? tree->Erase(txn, key, t) : tree->Put(txn, key, value, t);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_TRUE(db->Commit(txn).ok());
    model[key].emplace_back(t, erase ? std::nullopt
                                     : std::optional<std::string>(value));
    times.push_back(t);
  }
  for (int i = 0; i < kKeys; i += 7) {
    ASSERT_NO_FATAL_FAILURE(check(Key(i), kTsbTimeMax));
    ASSERT_NO_FATAL_FAILURE(check(Key(i), times[times.size() / 2]));
  }
  const TsbStats& st = tree->stats();
  EXPECT_GT(st.optimistic_gets.load(), 0u);
  EXPECT_GT(st.optimistic_fallbacks.load(), 0u);
  EXPECT_GT(st.side_traversals.load(), 0u);
  EXPECT_GT(st.history_hops.load(), 0u);
  std::string report;
  EXPECT_TRUE(tree->CheckWellFormed(&report).ok()) << report;
}

}  // namespace
}  // namespace pitree

// Tests for the multi-attribute Π-tree (paper §2.2.3, Figure 2): kd-style
// rectangle splits, multiple sibling terms per node, clipped index terms
// placed in several parents with the multi-parent mark.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/random.h"
#include "db/database.h"
#include "engine/page_alloc.h"
#include "env/sim_env.h"
#include "engine/log_apply.h"
#include "harness/abandon.h"
#include "mdtree/md_tree.h"
#include "txn/txn_manager.h"

namespace pitree {

/// Reaches MdTree's private split machinery so the §3.2.2 clip-and-mark
/// behavior can be driven deterministically.
class MdTreeTestPeer {
 public:
  static Status SplitNode(MdTree* tree, Transaction* action, PageHandle& h,
                          PageId* sibling) {
    return tree->SplitNode(action, h, sibling);
  }
};

namespace {

class MdTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Options opts;
    opts.buffer_pool_pages = 4096;
    ASSERT_TRUE(Database::Open(opts, &env_, "db", &db_).ok());
    Transaction* txn = db_->Begin();
    ASSERT_TRUE(EngineAllocPage(db_->context(), txn, &root_).ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
    ASSERT_TRUE(MdTree::Create(db_->context(), root_).ok());
    tree_ = std::make_unique<MdTree>(db_->context(), root_);
  }

  Status InsertOne(uint32_t x, uint32_t y, const std::string& v) {
    Transaction* txn = db_->Begin();
    Status s = tree_->Insert(txn, x, y, v);
    if (s.ok()) return db_->Commit(txn);
    (void)db_->Abort(txn);
    return s;
  }

  Status GetOne(uint32_t x, uint32_t y, std::string* v) {
    Transaction* txn = db_->Begin();
    Status s = tree_->Get(txn, x, y, v);
    (void)db_->Commit(txn);
    return s;
  }

  SimEnv env_;
  std::unique_ptr<Database> db_;
  PageId root_ = kInvalidPageId;
  std::unique_ptr<MdTree> tree_;
};

TEST_F(MdTreeTest, EncodingRoundTrips) {
  std::string k = MdTree::PointKey(123456, 7890);
  uint32_t x, y;
  ASSERT_TRUE(MdTree::DecodePointKey(k, &x, &y));
  EXPECT_EQ(x, 123456u);
  EXPECT_EQ(y, 7890u);
  MdRect r{10, 20, 30, 40};
  MdRect d;
  ASSERT_TRUE(MdTree::DecodeRect(MdTree::EncodeRect(r), &d));
  EXPECT_EQ(d.x_lo, 10u);
  EXPECT_EQ(d.y_hi, 40u);
}

TEST_F(MdTreeTest, RectPredicates) {
  MdRect r{10, 10, 20, 20};
  EXPECT_TRUE(r.Contains(10, 10));
  EXPECT_FALSE(r.Contains(20, 10));  // half-open
  MdRect overlapping{15, 15, 25, 25};
  EXPECT_TRUE(r.Intersects(overlapping));
  MdRect touching{20, 10, 30, 20};
  EXPECT_FALSE(r.Intersects(touching));  // touching edges don't intersect
  MdRect whole{0, 0, 100, 100};
  EXPECT_TRUE(whole.ContainsRect(r));
  MdRect wider{5, 10, 20, 20};
  EXPECT_FALSE(r.ContainsRect(wider));
}

TEST_F(MdTreeTest, InsertGetDeleteRoundTrip) {
  ASSERT_TRUE(InsertOne(5, 7, "value57").ok());
  std::string v;
  ASSERT_TRUE(GetOne(5, 7, &v).ok());
  EXPECT_EQ(v, "value57");
  EXPECT_TRUE(GetOne(5, 8, &v).IsNotFound());
  EXPECT_TRUE(InsertOne(5, 7, "dup").IsInvalidArgument());
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(tree_->Delete(txn, 5, 7).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  EXPECT_TRUE(GetOne(5, 7, &v).IsNotFound());
}

TEST_F(MdTreeTest, ManyPointsForceKdSplitsAllRemainSearchable) {
  Random rnd(2026);
  std::map<std::pair<uint32_t, uint32_t>, std::string> model;
  std::string value(60, 'm');
  for (int i = 0; i < 2500; ++i) {
    uint32_t x = static_cast<uint32_t>(rnd.Uniform(1u << 20));
    uint32_t y = static_cast<uint32_t>(rnd.Uniform(1u << 20));
    Status s = InsertOne(x, y, value);
    if (s.ok()) model[{x, y}] = value;
  }
  EXPECT_GT(tree_->stats().splits.load() + tree_->stats().root_grows.load(),
            10u);
  for (const auto& [pt, v] : model) {
    std::string got;
    ASSERT_TRUE(GetOne(pt.first, pt.second, &got).ok())
        << pt.first << "," << pt.second;
    EXPECT_EQ(got, v);
  }
}

TEST_F(MdTreeTest, SplitsCauseClippingInWorkloads) {
  // Data-node splits routinely cut across previously delegated rectangles:
  // the sibling terms are clipped into both halves (§3.2.2). The counter
  // tracks every such clip.
  Random rnd(7);
  std::string value(600, 'c');
  int inserted = 0;
  for (int i = 0; i < 3000; ++i) {
    uint32_t x = static_cast<uint32_t>(rnd.Uniform(1u << 16));
    uint32_t y = static_cast<uint32_t>(rnd.Uniform(1u << 16));
    if (InsertOne(x, y, value).ok()) ++inserted;
  }
  ASSERT_GT(inserted, 2800);
  EXPECT_GT(tree_->stats().clips.load(), 0u);
  // Probe coverage for a sample of points: delegations stay reachable.
  std::vector<std::pair<uint32_t, uint32_t>> probes;
  Random prnd(8);
  for (int i = 0; i < 200; ++i) {
    probes.emplace_back(static_cast<uint32_t>(prnd.Uniform(1u << 16)),
                        static_cast<uint32_t>(prnd.Uniform(1u << 16)));
  }
  std::string report;
  ASSERT_TRUE(tree_->CheckCoverage(probes, &report).ok()) << report;
}

TEST_F(MdTreeTest, IndexNodeSplitClipsAndMarksMultiParentTerms) {
  // Drive the §3.2.2 mechanism directly: build an index node whose child
  // rectangles straddle any balanced cut, split it, and verify the
  // straddling terms were placed in BOTH halves with the multi-parent mark.
  EngineContext* ctx = db_->context();
  Transaction* txn = db_->Begin();
  PageId ipid;
  ASSERT_TRUE(EngineAllocPage(ctx, txn, &ipid).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());

  Transaction* action = ctx->txns->Begin(/*is_system=*/true);
  PageHandle h;
  ASSERT_TRUE(ctx->pool->FetchPageZeroed(ipid, &h).ok());
  h.latch().AcquireX();
  PageInitHeader(h.data(), ipid, PageType::kTreeNode);
  MdRect whole{0, 0, 1000, 1000};
  ASSERT_TRUE(LogAndApply(ctx, action, h, PageOp::kNodeFormat,
                          NodeRef::FormatPayload(1, 0, kBoundHighPosInf,
                                                 MdTree::EncodeRect(whole),
                                                 Slice(), kInvalidPageId),
                          PageOp::kNone, "")
                  .ok());
  // Children: vertical stripes (never straddle an x-cut between them) plus
  // one WIDE child spanning all x — any x-cut straddles it -> clipped.
  struct Child {
    MdRect rect;
    PageId fake_pid;
  } children[] = {
      {{0, 0, 250, 900}, 501},
      {{250, 0, 500, 900}, 502},
      {{500, 0, 750, 900}, 503},
      {{750, 0, 1000, 900}, 504},
      {{0, 900, 1000, 1000}, 505},  // the wide one
  };
  for (const auto& c : children) {
    ASSERT_TRUE(LogAndApply(ctx, action, h, PageOp::kNodeInsert,
                            NodeRef::InsertPayload(
                                std::string(1, '') +
                                    MdTree::EncodeRect(c.rect),
                                EncodeIndexTerm(c.fake_pid)),
                            PageOp::kNone, "")
                    .ok());
  }
  PageId sibling = kInvalidPageId;
  uint64_t clips_before = tree_->stats().clips.load();
  ASSERT_TRUE(
      MdTreeTestPeer::SplitNode(tree_.get(), action, h, &sibling).ok());
  h.latch().ReleaseX();
  h.Reset();
  ASSERT_TRUE(ctx->txns->Commit(action).ok());
  EXPECT_GT(tree_->stats().clips.load(), clips_before);

  // The wide child's term must now exist in BOTH nodes, clipped and marked.
  auto count_marked = [&](PageId pid, int* marked, int* terms) {
    PageHandle ph;
    ASSERT_TRUE(ctx->pool->FetchPage(pid, &ph).ok());
    NodeRef node(ph.data());
    *marked = 0;
    *terms = 0;
    for (int i = 0; i < node.entry_count(); ++i) {
      Slice key = node.EntryKey(i);
      if (key.empty() || key[0] != '') continue;
      ++*terms;
      IndexTerm t;
      ASSERT_TRUE(DecodeIndexTerm(node.EntryValue(i), &t));
      if (t.flags & kIndexEntryMultiParent) {
        ++*marked;
        EXPECT_EQ(t.child, 505u);  // only the wide child straddles
      }
    }
  };
  int marked_l = 0, terms_l = 0, marked_r = 0, terms_r = 0;
  count_marked(ipid, &marked_l, &terms_l);
  count_marked(sibling, &marked_r, &terms_r);
  EXPECT_EQ(marked_l, 1);
  EXPECT_EQ(marked_r, 1);
  // 4 stripes (2 per half) + 2 clipped copies of the wide child.
  EXPECT_EQ(terms_l + terms_r, 6);
  // §3.3: a consolidation pass would skip node 505 — both parents still
  // reference it; the mark is what makes that test possible.
}

TEST_F(MdTreeTest, PostingsSettleSoGetsStopCrossingSidePointers) {
  // The Figure 2 workload. Every split's index term must reach the parent
  // on the search path, clipped to the term the search came through, so
  // that the smallest-area routing rule prefers it over the stale term
  // (§5.3): after one pass of Gets has completed whatever it crossed, Gets
  // cross (almost) no side pointers, and no posting job walks the tree
  // more than once.
  Random rnd(17);
  std::vector<std::pair<uint32_t, uint32_t>> points;
  const std::string value(300, 'p');
  for (int i = 0; i < 3000; ++i) {
    uint32_t x = static_cast<uint32_t>(rnd.Uniform(100000));
    uint32_t y = static_cast<uint32_t>(rnd.Uniform(100000));
    if (InsertOne(x, y, value).ok()) points.emplace_back(x, y);
  }
  const MdStats& st = tree_->stats();
  ASSERT_GT(st.splits.load(), 100u);
  // Side pointers one plain descent crosses, on average.
  uint64_t side = st.side_traversals.load();
  std::string report;
  ASSERT_TRUE(tree_->CheckCoverage(points, &report).ok()) << report;
  const double per_descent =
      static_cast<double>(st.side_traversals.load() - side) / points.size();

  side = st.side_traversals.load();
  const uint64_t jobs_before =
      st.posts_performed.load() + st.posts_obsolete.load();
  std::string v;
  for (const auto& [x, y] : points) ASSERT_TRUE(GetOne(x, y, &v).ok());
  const uint64_t settle_hops = st.side_traversals.load() - side;
  const uint64_t jobs =
      st.posts_performed.load() + st.posts_obsolete.load() - jobs_before;
  // Each Get and each posting job descends once.
  EXPECT_LE(static_cast<double>(settle_hops),
            (points.size() + jobs) * (per_descent + 1));

  side = st.side_traversals.load();
  for (const auto& [x, y] : points) ASSERT_TRUE(GetOne(x, y, &v).ok());
  EXPECT_LT(static_cast<double>(st.side_traversals.load() - side) /
                points.size(),
            1.0);
  ASSERT_TRUE(tree_->CheckCoverage(points, &report).ok()) << report;
}

TEST_F(MdTreeTest, RangeQueryMatchesModel) {
  Random rnd(99);
  std::set<std::pair<uint32_t, uint32_t>> model;
  std::string value = "pt";
  for (int i = 0; i < 3000; ++i) {
    uint32_t x = static_cast<uint32_t>(rnd.Uniform(1000));
    uint32_t y = static_cast<uint32_t>(rnd.Uniform(1000));
    if (InsertOne(x, y, value).ok()) model.insert({x, y});
  }
  MdRect query{100, 200, 400, 700};
  Transaction* txn = db_->Begin();
  std::vector<MdPoint> out;
  ASSERT_TRUE(tree_->RangeQuery(txn, query, &out).ok());
  (void)db_->Commit(txn);
  std::set<std::pair<uint32_t, uint32_t>> got;
  for (const auto& p : out) got.insert({p.x, p.y});
  std::set<std::pair<uint32_t, uint32_t>> expect;
  for (const auto& p : model) {
    if (query.Contains(p.first, p.second)) expect.insert(p);
  }
  EXPECT_EQ(got, expect);
}

TEST_F(MdTreeTest, AbortUndoesPointOperations) {
  ASSERT_TRUE(InsertOne(1, 1, "keep").ok());
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(tree_->Insert(txn, 2, 2, "gone").ok());
  ASSERT_TRUE(tree_->Delete(txn, 1, 1).ok());
  ASSERT_TRUE(db_->Abort(txn).ok());
  std::string v;
  ASSERT_TRUE(GetOne(1, 1, &v).ok());
  EXPECT_EQ(v, "keep");
  EXPECT_TRUE(GetOne(2, 2, &v).IsNotFound());
}

TEST_F(MdTreeTest, SurvivesCrashAndRecovery) {
  Random rnd(4);
  std::set<std::pair<uint32_t, uint32_t>> model;
  std::string value(80, 'r');
  for (int i = 0; i < 2500; ++i) {
    uint32_t x = static_cast<uint32_t>(rnd.Uniform(1u << 18));
    uint32_t y = static_cast<uint32_t>(rnd.Uniform(1u << 18));
    if (InsertOne(x, y, value).ok()) model.insert({x, y});
  }
  env_.Crash();
  harness::AbandonCrashed(std::move(db_));
  tree_.reset();

  Options opts;
  opts.buffer_pool_pages = 4096;
  std::unique_ptr<Database> db2;
  ASSERT_TRUE(Database::Open(opts, &env_, "db", &db2).ok());
  MdTree tree2(db2->context(), root_);
  int checked = 0;
  for (const auto& p : model) {
    if (++checked % 17 != 0) continue;
    Transaction* txn = db2->Begin();
    std::string v;
    ASSERT_TRUE(tree2.Get(txn, p.first, p.second, &v).ok())
        << p.first << "," << p.second;
    (void)db2->Commit(txn);
  }
}

TEST_F(MdTreeTest, DumpShowsStructureKinds) {
  Random rnd(12);
  std::string value(120, 'd');
  for (int i = 0; i < 1500; ++i) {
    InsertOne(static_cast<uint32_t>(rnd.Uniform(1u << 16)),
              static_cast<uint32_t>(rnd.Uniform(1u << 16)), value)
        .ok();
  }
  std::string dump;
  ASSERT_TRUE(tree_->DumpStructure(&dump).ok());
  EXPECT_NE(dump.find("index node"), std::string::npos);
  EXPECT_NE(dump.find("data node"), std::string::npos);
  EXPECT_NE(dump.find("index term"), std::string::npos);
}

}  // namespace
}  // namespace pitree

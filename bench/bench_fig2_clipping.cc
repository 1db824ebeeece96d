// Figure 2 reproduction — the hB-tree picture: a multi-attribute index in
// which removing ("extracting") subspaces leaves holes, and index terms for
// children that straddle a split are CLIPPED into both parents, creating
// multi-parent nodes that must be marked (§3.2.2, §3.3).
//
// Our mdtree realizes the same Π-tree structure with explicit rectangles
// (DESIGN.md documents the substitution for the paper's intra-node
// kd-trees). The demo (1) grows a 2-D tree under a point workload and
// prints its node partition — rectangles, sibling terms (the Figure's
// replaced "external markers"), index terms; and (2) drives one index-node
// split whose children straddle the cut, showing the clipped, multi-parent-
// marked terms that result.

#include "bench_util.h"
#include "common/random.h"
#include "engine/page_alloc.h"
#include "mdtree/md_tree.h"

int main() {
  using namespace pitree;
  using namespace pitree::bench;
  setvbuf(stdout, nullptr, _IOLBF, 0);

  printf("Figure 2: multi-attribute Pi-tree — sibling terms as rectangles, "
         "clipped index terms\n\n");

  BenchDb bdb;
  Transaction* txn = bdb.db->Begin();
  PageId root;
  EngineAllocPage(bdb.db->context(), txn, &root).ok();
  bdb.db->Commit(txn).ok();
  MdTree::Create(bdb.db->context(), root).ok();
  MdTree tree(bdb.db->context(), root);

  // Stage 1: grow a 2-D tree; kd splits delegate sub-rectangles via
  // sibling terms; later splits cut across earlier delegations -> clips.
  Random rnd(17);
  std::string value(300, 'p');
  std::vector<std::pair<uint32_t, uint32_t>> points;
  for (int i = 0; i < 3000; ++i) {
    Transaction* t = bdb.db->Begin();
    uint32_t x = static_cast<uint32_t>(rnd.Uniform(100000));
    uint32_t y = static_cast<uint32_t>(rnd.Uniform(100000));
    Status s = tree.Insert(t, x, y, value);
    if (s.ok()) {
      bdb.db->Commit(t).ok();
      points.emplace_back(x, y);
    } else {
      bdb.db->Abort(t).ok();
    }
  }
  printf("workload: %llu node splits, %llu term clips, %llu side "
         "traversals, %llu postings\n\n",
         (unsigned long long)tree.stats().splits.load(),
         (unsigned long long)tree.stats().clips.load(),
         (unsigned long long)tree.stats().side_traversals.load(),
         (unsigned long long)tree.stats().posts_performed.load());

  // Postings are clipped to the term the search came through, so once a
  // pass of Gets has completed what it crossed, Gets stop side-stepping.
  for (int pass = 1; pass <= 2; ++pass) {
    uint64_t side = tree.stats().side_traversals.load();
    uint64_t posts = tree.stats().posts_performed.load();
    std::string v;
    for (const auto& [x, y] : points) {
      Transaction* t = bdb.db->Begin();
      tree.Get(t, x, y, &v).ok();
      bdb.db->Commit(t).ok();
    }
    printf("get pass %d: %.3f side traversals per Get, %llu postings\n", pass,
           static_cast<double>(tree.stats().side_traversals.load() - side) /
               points.size(),
           (unsigned long long)(tree.stats().posts_performed.load() - posts));
  }
  printf("\n");

  std::string dump;
  tree.DumpStructure(&dump).ok();
  // Print the first part of the partition (it can be large).
  size_t cut = 0;
  int lines = 0;
  while (cut < dump.size() && lines < 25) {
    if (dump[cut] == '\n') ++lines;
    ++cut;
  }
  printf("node partition (first %d lines):\n%.*s...\n\n", lines,
         static_cast<int>(cut), dump.c_str());

  // Stage 2: range queries across the partition remain exact.
  MdRect q{20000, 30000, 60000, 70000};
  Transaction* t = bdb.db->Begin();
  std::vector<MdPoint> pts;
  Timer timer;
  tree.RangeQuery(t, q, &pts).ok();
  bdb.db->Commit(t).ok();
  printf("range query %s -> %zu points in %.2f ms\n\n", q.ToString().c_str(),
         pts.size(), timer.ElapsedMillis());

  printf("Reproduced behaviors (Figure 2 caption): external markers are "
         "replaced by\nsibling pointers (rectangle sibling terms above); "
         "index terms for children that\nstraddle an index split are placed "
         "in both parents and marked multi-parent —\ndemonstrated "
         "deterministically in tests/md_tree_test.cc\n"
         "(IndexNodeSplitClipsAndMarksMultiParentTerms) and counted here "
         "as 'term clips'.\n");
  return 0;
}

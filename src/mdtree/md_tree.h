#ifndef PITREE_MDTREE_MD_TREE_H_
#define PITREE_MDTREE_MD_TREE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/engine_context.h"
#include "pitree/descent.h"
#include "pitree/node_page.h"
#include "pitree/smo.h"
#include "storage/buffer_pool.h"
#include "txn/transaction.h"

namespace pitree {

/// Axis-aligned rectangle over the 2-D point space, [x_lo,x_hi) x [y_lo,y_hi).
struct MdRect {
  uint32_t x_lo = 0, y_lo = 0;
  uint32_t x_hi = 0xFFFFFFFFu, y_hi = 0xFFFFFFFFu;

  bool Contains(uint32_t x, uint32_t y) const {
    return x >= x_lo && x < x_hi && y >= y_lo && y < y_hi;
  }
  bool Intersects(const MdRect& o) const {
    return x_lo < o.x_hi && o.x_lo < x_hi && y_lo < o.y_hi && o.y_lo < y_hi;
  }
  bool ContainsRect(const MdRect& o) const {
    return o.x_lo >= x_lo && o.x_hi <= x_hi && o.y_lo >= y_lo &&
           o.y_hi <= y_hi;
  }
  std::string ToString() const;
};

struct MdPoint {
  uint32_t x, y;
  std::string value;
};

struct MdStats {
  std::atomic<uint64_t> splits{0};
  std::atomic<uint64_t> root_grows{0};
  std::atomic<uint64_t> clips{0};             // terms clipped into 2 nodes
  std::atomic<uint64_t> side_traversals{0};
  std::atomic<uint64_t> posts_performed{0};
  std::atomic<uint64_t> posts_obsolete{0};
};

/// Multi-attribute Π-tree (paper §2.2.3, Figure 2): a 2-D point index with
/// kd-style rectangle splits, built on the same atomic-action machinery as
/// the B-link instantiation. It exists to exercise the parts of the Π-tree
/// definition that a 1-D tree cannot:
///
///  - a node may hold SEVERAL sibling terms (side pointers with rectangles),
///    each delegating a sub-rectangle of its space;
///  - an index-node split may CLIP a child term whose rectangle straddles
///    the split line: the term is placed in both parents and marked
///    multi-parent (§3.2.2, §3.3) — exactly the hB-tree situation Figure 2
///    depicts (we replace its intra-node kd-tree encoding with explicit
///    rectangles; see DESIGN.md);
///  - index-term posting goes to ONE parent per atomic action (the one on
///    the current search path), clipped to the term the search came
///    through; other parents are completed by later traversals that cross
///    the side pointer. Splits, root grows and postings run through the
///    kernel shared with the other trees (pitree/smo.h); the tree is not a
///    catalog index, so its completion jobs always run inline.
///
/// Storage mapping: points are 8-byte (x,y) keys in ordinary tree-node
/// pages; sibling terms are reserved entries ("\x01S" · rect) holding the
/// delegated rectangle and side pointer; index terms are rect-keyed entries
/// holding child id + multi-parent flag. The node's own *responsibility*
/// rectangle lives in the low-boundary field.
///
/// Undo is page-oriented; like the baselines, multi-operation transactions
/// whose records a later split moves are not supported (benchmarks and
/// examples use single-operation transactions). Node consolidation is not
/// implemented for this instance (CNS regime) — multi-parent marks are
/// what consolidation would consult (§3.3), and tests verify they are set.
class MdTree : public SmoTree {
 public:
  MdTree(EngineContext* ctx, PageId root);
  MdTree(const MdTree&) = delete;
  MdTree& operator=(const MdTree&) = delete;

  static Status Create(EngineContext* ctx, PageId root);

  Status Insert(Transaction* txn, uint32_t x, uint32_t y, const Slice& value);
  Status Get(Transaction* txn, uint32_t x, uint32_t y, std::string* value);
  Status Delete(Transaction* txn, uint32_t x, uint32_t y);

  /// All points inside `query`, latch-consistent.
  Status RangeQuery(Transaction* txn, const MdRect& query,
                    std::vector<MdPoint>* out);

  /// Probes structural sanity: every level covers the whole space for the
  /// given sample points (analytic coverage checking of clipped rectangles
  /// is NP-hard-ish to express; probing is how the tests audit invariant 4).
  Status CheckCoverage(const std::vector<std::pair<uint32_t, uint32_t>>&
                           probes,
                       std::string* report) const;

  /// Figure 2 support: renders the node partition with sibling terms,
  /// index terms, and multi-parent marks.
  Status DumpStructure(std::string* out) const;

  /// Executes a completing atomic action: an index-term posting (§5.3).
  Status ExecuteJob(const CompletionJob& job) override;

  const MdStats& stats() const { return stats_; }

  // Encoding helpers (exposed for tests).
  static std::string PointKey(uint32_t x, uint32_t y);
  static bool DecodePointKey(const Slice& key, uint32_t* x, uint32_t* y);
  static std::string EncodeRect(const MdRect& r);
  static bool DecodeRect(const Slice& s, MdRect* r);

 private:
  friend class MdTreeTestPeer;
  friend struct MdPolicy;

  struct SiblingTerm {
    MdRect rect;
    PageId page = kInvalidPageId;
  };

  static Status NodeRect(const NodeRef& node, MdRect* rect);
  static std::vector<SiblingTerm> SiblingTerms(const NodeRef& node);
  static bool DirectlyContainsPoint(const NodeRef& node, const MdRect& rect,
                                    uint32_t x, uint32_t y,
                                    SiblingTerm* via_sibling);

  /// The posting action's Search step, for the point `job.key` encodes.
  Status Search(OpCtx* op, const CompletionJob& job, Descent* d) override;

  /// The kd split of the X-latched node (leaf or index) inside `action`:
  /// the longer axis is cut at the content's median, straddling terms are
  /// clipped into both halves (§3.2.2), and the node gets a sibling term
  /// for the new right node.
  Status SplitNode(Transaction* action, PageHandle& h,
                   PageId* sibling) override;

  mutable MdStats stats_;
};

/// Descent policy of the multi-attribute tree (DESIGN.md §17): a node
/// delegates sub-rectangles of its space through sibling terms, and the
/// child for a point is the smallest index rectangle covering it.
struct MdPolicy {
  uint32_t x, y;

  bool Covers(const NodeRef& node) const;
  Step Route(const NodeRef& node, uint8_t target_level) const;

  /// §5.3 posting (pitree/smo.h): `child` delegates the point through a
  /// sibling term to `sibling`; the parent's term is that term's rectangle
  /// clipped to the parent's term the point was routed through, marked
  /// multi-parent when the delegated rectangle leaves the parent's.
  bool PostingTerm(const NodeRef& parent, const NodeRef& child,
                   PageId sibling, NodeEntry* term) const;

  /// A grown root's index terms: the left child's remaining half and the
  /// right sibling's rectangle.
  static void RootTerms(const NodeRef& left, PageId left_id, PageId right,
                        NodeEntry terms[2]);
};

}  // namespace pitree

#endif  // PITREE_MDTREE_MD_TREE_H_

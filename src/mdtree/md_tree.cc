// lint:allow-naked-latch -- splits X-latch fresh nodes, scans S-latch one
// node at a time; descents run through the pitree/descent.h kernel,
// structure changes through pitree/smo.h.
#include "common/thread_annotations.h"
#include "mdtree/md_tree.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/coding.h"
#include "engine/log_apply.h"
#include "txn/lock_manager.h"

namespace pitree {

namespace {
// Entry-key prefixes keep the three kinds of node content disjoint and
// deterministically ordered: sibling terms, points, index terms.
constexpr char kPrefixSibling = '\x01';
constexpr char kPrefixPoint = '\x02';
constexpr char kPrefixIndex = '\x03';

MdRect Intersect(const MdRect& a, const MdRect& b) {
  MdRect r;
  r.x_lo = std::max(a.x_lo, b.x_lo);
  r.y_lo = std::max(a.y_lo, b.y_lo);
  r.x_hi = std::min(a.x_hi, b.x_hi);
  r.y_hi = std::min(a.y_hi, b.y_hi);
  return r;
}

bool Empty(const MdRect& r) { return r.x_lo >= r.x_hi || r.y_lo >= r.y_hi; }

uint64_t Area(const MdRect& r) {
  return static_cast<uint64_t>(r.x_hi - r.x_lo) *
         static_cast<uint64_t>(r.y_hi - r.y_lo);
}

// Chooses the child whose index term covers the point, preferring the most
// specific (smallest) rectangle — the 2-D analogue of the B-link rule of
// following the rightmost separator at or below the key: posted terms for
// finer delegations take precedence over stale coarse ones (§3.1:
// "approximately contained" space shrinks as postings arrive).
PageId FindChildForPoint(const NodeRef& node, uint32_t x, uint32_t y,
                         MdRect* best_rect = nullptr) {
  PageId best = kInvalidPageId;
  uint64_t best_area = ~uint64_t{0};
  for (int i = 0; i < node.entry_count(); ++i) {
    Slice key = node.EntryKey(i);
    if (key.empty() || key[0] != kPrefixIndex) continue;
    MdRect r;
    if (!MdTree::DecodeRect(Slice(key.data() + 1, key.size() - 1), &r)) {
      continue;
    }
    if (!r.Contains(x, y)) continue;
    IndexTerm t;
    if (!DecodeIndexTerm(node.EntryValue(i), &t)) continue;
    uint64_t area = Area(r);
    if (area < best_area) {
      best_area = area;
      best = t.child;
      if (best_rect != nullptr) *best_rect = r;
    }
  }
  return best;
}

}  // namespace

std::string MdRect::ToString() const {
  std::ostringstream os;
  os << "[" << x_lo << "," << x_hi << ")x[" << y_lo << "," << y_hi << ")";
  return os.str();
}

std::string MdTree::PointKey(uint32_t x, uint32_t y) {
  std::string k(1, kPrefixPoint);
  for (int shift = 24; shift >= 0; shift -= 8) {
    k.push_back(static_cast<char>((x >> shift) & 0xff));
  }
  for (int shift = 24; shift >= 0; shift -= 8) {
    k.push_back(static_cast<char>((y >> shift) & 0xff));
  }
  return k;
}

bool MdTree::DecodePointKey(const Slice& key, uint32_t* x, uint32_t* y) {
  if (key.size() != 9 || key[0] != kPrefixPoint) return false;
  uint32_t vx = 0, vy = 0;
  for (int i = 1; i <= 4; ++i) vx = (vx << 8) | static_cast<unsigned char>(key[i]);
  for (int i = 5; i <= 8; ++i) vy = (vy << 8) | static_cast<unsigned char>(key[i]);
  *x = vx;
  *y = vy;
  return true;
}

std::string MdTree::EncodeRect(const MdRect& r) {
  std::string s;
  PutFixed32(&s, r.x_lo);
  PutFixed32(&s, r.y_lo);
  PutFixed32(&s, r.x_hi);
  PutFixed32(&s, r.y_hi);
  return s;
}

bool MdTree::DecodeRect(const Slice& in, MdRect* r) {
  Slice s = in;
  return GetFixed32(&s, &r->x_lo) && GetFixed32(&s, &r->y_lo) &&
         GetFixed32(&s, &r->x_hi) && GetFixed32(&s, &r->y_hi);
}

MdTree::MdTree(EngineContext* ctx, PageId root) : SmoTree(ctx, root) {
  Configure({.root_terms = &MdPolicy::RootTerms,
             .inline_jobs = true,
             .side_traversals = &stats_.side_traversals,
             .splits = &stats_.splits,
             .root_grows = &stats_.root_grows,
             .posts_performed = &stats_.posts_performed,
             .posts_obsolete = &stats_.posts_obsolete});
}

Status MdTree::Create(EngineContext* ctx, PageId root) {
  // The whole-space rectangle lives in the low-boundary field.
  return FormatRoot(ctx, root,
                    NodeRef::FormatPayload(0, kNodeFlagRoot, kBoundHighPosInf,
                                           EncodeRect(MdRect()), Slice(),
                                           kInvalidPageId));
}

Status MdTree::NodeRect(const NodeRef& node, MdRect* rect) {
  if (node.low_is_neg_inf() || !DecodeRect(node.low_key(), rect)) {
    return Status::Corruption("md node lacks a rectangle");
  }
  return Status::OK();
}

std::vector<MdTree::SiblingTerm> MdTree::SiblingTerms(const NodeRef& node) {
  std::vector<SiblingTerm> out;
  for (int i = 0; i < node.entry_count(); ++i) {
    Slice key = node.EntryKey(i);
    if (key.empty() || key[0] != kPrefixSibling) {
      if (!key.empty() && key[0] > kPrefixSibling) break;  // sorted
      continue;
    }
    SiblingTerm term;
    Slice rect_bytes(key.data() + 1, key.size() - 1);
    if (!DecodeRect(rect_bytes, &term.rect)) continue;
    Slice v = node.EntryValue(i);
    if (v.size() >= 4) term.page = DecodeFixed32(v.data());
    out.push_back(std::move(term));
  }
  return out;
}

bool MdTree::DirectlyContainsPoint(const NodeRef& node, const MdRect& rect,
                                   uint32_t x, uint32_t y,
                                   SiblingTerm* via_sibling) {
  if (!rect.Contains(x, y)) return false;
  for (auto& term : SiblingTerms(node)) {
    if (term.rect.Contains(x, y)) {
      if (via_sibling != nullptr) *via_sibling = term;
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Traversal
// ---------------------------------------------------------------------------

bool MdPolicy::Covers(const NodeRef& node) const {
  MdRect rect;
  return MdTree::NodeRect(node, &rect).ok() && rect.Contains(x, y);
}

Step MdPolicy::Route(const NodeRef& node, uint8_t target_level) const {
  MdRect rect;
  if (!MdTree::NodeRect(node, &rect).ok()) {
    return Step::Corrupt("md node lacks a rectangle");
  }
  // The point lies in a sub-rectangle delegated through a sibling term.
  MdTree::SiblingTerm via;
  if (!MdTree::DirectlyContainsPoint(node, rect, x, y, &via)) {
    if (via.page == kInvalidPageId) {
      return Step::Corrupt("md: point outside node and siblings");
    }
    return Step::Side(via.page);
  }
  if (node.level() == target_level) return Step::Here();
  PageId child = FindChildForPoint(node, x, y);
  if (child == kInvalidPageId) {
    return Step::Corrupt("md: no index term covers point");
  }
  return Step::Child(child);
}

bool MdPolicy::PostingTerm(const NodeRef& parent, const NodeRef& child,
                           PageId sibling, NodeEntry* term) const {
  MdRect child_rect, parent_rect, through;
  MdTree::SiblingTerm via;
  if (!MdTree::NodeRect(child, &child_rect).ok() ||
      !MdTree::NodeRect(parent, &parent_rect).ok() ||
      MdTree::DirectlyContainsPoint(child, child_rect, x, y, &via) ||
      via.page != sibling ||
      FindChildForPoint(parent, x, y, &through) == kInvalidPageId) {
    return false;
  }
  // Clipped to the term the search came through, the posted term is never
  // larger than it, so the smallest-area rule prefers the new term from now
  // on; equal to it, the old term was wholly delegated and is replaced.
  MdRect posted = Intersect(via.rect, through);
  if (Empty(posted)) return false;
  const bool multi_parent = !parent_rect.ContainsRect(via.rect);
  term->key = std::string(1, kPrefixIndex) + MdTree::EncodeRect(posted);
  term->value =
      EncodeIndexTerm(sibling, multi_parent ? kIndexEntryMultiParent : 0);
  return true;
}

void MdPolicy::RootTerms(const NodeRef& left, PageId left_id, PageId right,
                         NodeEntry terms[2]) {
  // The left child is responsible for the whole rectangle; its term
  // describes the half it still directly contains (§2.1.3 condition 3
  // allows a child to be responsible for more than its term says).
  MdRect rect, right_rect;
  MdTree::NodeRect(left, &rect).ok();
  for (const auto& term : MdTree::SiblingTerms(left)) {
    if (term.page == right) right_rect = term.rect;
  }
  MdRect left_part = rect;
  if (right_rect.x_lo > rect.x_lo) {
    left_part.x_hi = right_rect.x_lo;
  } else {
    left_part.y_hi = right_rect.y_lo;
  }
  terms[0] = {std::string(1, kPrefixIndex) + MdTree::EncodeRect(left_part),
              EncodeIndexTerm(left_id)};
  terms[1] = {std::string(1, kPrefixIndex) + MdTree::EncodeRect(right_rect),
              EncodeIndexTerm(right)};
}

Status MdTree::Search(OpCtx* op, const CompletionJob& job, Descent* d) {
  uint32_t x, y;
  if (!DecodePointKey(job.key, &x, &y)) {
    return Status::InvalidArgument("md: posting key is not a point");
  }
  d->target_level = job.level;
  d->target_mode = LatchMode::kUpdate;
  return Traverse(op, MdPolicy{x, y}, job.key, d);
}

Status MdTree::ExecuteJob(const CompletionJob& job) {
  uint32_t x, y;
  if (job.kind != CompletionJob::Kind::kPostIndexTerm ||
      !DecodePointKey(job.key, &x, &y)) {
    return Status::InvalidArgument("md: unsupported job");
  }
  return PostIndexTerm(MdPolicy{x, y}, job);
}

// ---------------------------------------------------------------------------
// Splits
// ---------------------------------------------------------------------------

// lint:tsa-escape -- atomic-action SMO: latches flow across helpers and
// error paths; checked by the runtime checker and tools/analyze.
Status MdTree::SplitNode(Transaction* action, PageHandle& h, PageId* sibling)
    NO_THREAD_SAFETY_ANALYSIS {
  NodeRef node(h.data());
  MdRect rect;
  PITREE_RETURN_IF_ERROR(NodeRect(node, &rect));

  // Collect content by kind.
  std::vector<NodeEntry> all = node.AllEntries();
  std::vector<NodeEntry> points, index_terms, sib_terms;
  for (auto& e : all) {
    switch (e.key[0]) {
      case kPrefixPoint:
        points.push_back(std::move(e));
        break;
      case kPrefixIndex:
        index_terms.push_back(std::move(e));
        break;
      case kPrefixSibling:
        sib_terms.push_back(std::move(e));
        break;
    }
  }

  // Choose the split: the longer axis of the rectangle, cut at the median
  // coordinate of the content (kd-style). Content bunched at the low edge
  // of that axis (one coordinate shared by most points) leaves no cut
  // there: cut the other axis at its content median instead.
  auto median = [&](bool x_axis) {
    std::vector<uint32_t> coords;
    for (const auto& e : points) {
      uint32_t x, y;
      if (DecodePointKey(e.key, &x, &y)) coords.push_back(x_axis ? x : y);
    }
    for (const auto& e : index_terms) {
      MdRect r;
      if (DecodeRect(Slice(e.key.data() + 1, e.key.size() - 1), &r)) {
        // Use rectangle centers: the simplest balanced cut. It routinely
        // straddles child rectangles — which is exactly when the paper
        // says to clip the term into both parents (§3.2.2) rather than
        // construct a complex edge-following partition.
        coords.push_back(x_axis ? r.x_lo / 2 + r.x_hi / 2
                                : r.y_lo / 2 + r.y_hi / 2);
      }
    }
    if (coords.empty()) return uint32_t{0};
    std::nth_element(coords.begin(), coords.begin() + coords.size() / 2,
                     coords.end());
    return coords[coords.size() / 2];
  };
  auto inside = [&](bool x_axis, uint32_t c) {
    return x_axis ? c > rect.x_lo && c < rect.x_hi
                  : c > rect.y_lo && c < rect.y_hi;
  };
  bool split_x = (rect.x_hi - rect.x_lo) >= (rect.y_hi - rect.y_lo);
  uint32_t cut = median(split_x);
  if (!inside(split_x, cut)) {
    split_x = !split_x;
    cut = median(split_x);
    if (!inside(split_x, cut)) return Status::NoSpace("md: unsplittable");
  }
  MdRect left = rect, right = rect;
  if (split_x) {
    left.x_hi = cut;
    right.x_lo = cut;
  } else {
    left.y_hi = cut;
    right.y_lo = cut;
  }

  // Partition the content. Index terms straddling the cut are CLIPPED:
  // placed in both nodes with intersected rectangles and the multi-parent
  // mark (§3.2.2 / §3.3). Sibling terms are likewise clipped (each copy
  // delegates the part of its node's space the referenced node covers).
  std::vector<NodeEntry> keep, move;
  std::vector<NodeEntry> erase_from_source;
  for (const auto& e : points) {
    uint32_t x, y;
    if (!DecodePointKey(e.key, &x, &y)) {
      return Status::Corruption("md: undecodable point key during split");
    }
    if (right.Contains(x, y)) {
      move.push_back(e);
      erase_from_source.push_back(e);
    }
  }
  for (const auto& kind : {&index_terms, &sib_terms}) {
    for (const auto& e : *kind) {
      char prefix = e.key[0];
      MdRect r;
      DecodeRect(Slice(e.key.data() + 1, e.key.size() - 1), &r);
      bool in_left = r.Intersects(left), in_right = r.Intersects(right);
      if (in_left && in_right) {
        // Clip into both halves.
        stats_.clips.fetch_add(1, std::memory_order_relaxed);
        erase_from_source.push_back(e);
        std::string v = e.value;
        if (prefix == kPrefixIndex && v.size() == 5) {
          v[4] = static_cast<char>(static_cast<uint8_t>(v[4]) |
                                   kIndexEntryMultiParent);
        }
        NodeEntry l{std::string(1, prefix) + EncodeRect(Intersect(r, left)),
                    v};
        NodeEntry rr{std::string(1, prefix) + EncodeRect(Intersect(r, right)),
                     v};
        keep.push_back(std::move(l));
        move.push_back(std::move(rr));
      } else if (in_right) {
        erase_from_source.push_back(e);
        move.push_back(e);
      }  // in_left only: stays untouched
    }
  }
  if (move.empty()) return Status::NoSpace("md: degenerate split");

  std::string image = node.ImagePayload();
  std::sort(move.begin(), move.end(),
            [](const NodeEntry& a, const NodeEntry& b) { return a.key < b.key; });
  PageHandle bh;
  PITREE_RETURN_IF_ERROR(NewNode(
      action,
      NodeRef::FormatPayload(node.level(), 0, kBoundHighPosInf,
                             EncodeRect(right), Slice(), kInvalidPageId),
      move, &bh));
  bh.latch().ReleaseX();
  // Source: remove the delegated content, then install the clipped copies
  // and the sibling term for the new node. (The node's responsibility
  // rectangle does NOT shrink — it has merely delegated the right half.)
  std::string sib_value;
  PutFixed32(&sib_value, bh.id());
  keep.push_back(
      {std::string(1, kPrefixSibling) + EncodeRect(right), sib_value});
  if (!erase_from_source.empty()) {
    PITREE_RETURN_IF_ERROR(LogAndApply(
        ctx_, action, h, PageOp::kNodeBulkErase,
        NodeRef::BulkErasePayload(erase_from_source), PageOp::kNodeUnsplit,
        image));
  }
  PITREE_RETURN_IF_ERROR(LogAndApply(ctx_, action, h, PageOp::kNodeBulkLoad,
                                     NodeRef::BulkLoadPayload(keep),
                                     PageOp::kNodeUnsplit, image));
  *sibling = bh.id();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Record operations
// ---------------------------------------------------------------------------

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status MdTree::Insert(Transaction* txn, uint32_t x, uint32_t y,
                      const Slice& value) NO_THREAD_SAFETY_ANALYSIS {
  std::string pkey = PointKey(x, y);
  OpCtx op;
  op.txn = txn;
  Status result;
  for (;;) {
    PageHandle leaf;
    PITREE_RETURN_IF_ERROR(
        DescendTo(&op, MdPolicy{x, y}, pkey, LatchMode::kUpdate, &leaf));
    std::string rname = RecordLockName(root_, pkey);
    Status s = ctx_->locks->Lock(txn, rname, LockMode::kX, /*wait=*/false);
    if (s.IsBusy()) {
      leaf.latch().ReleaseU();
      leaf.Reset();
      PITREE_RETURN_IF_ERROR(
          ctx_->locks->Lock(txn, rname, LockMode::kX, /*wait=*/true));
      continue;
    }
    if (!s.ok()) return s;
    NodeRef node(leaf.data());
    bool found;
    node.FindSlot(pkey, &found);
    if (found) {
      leaf.latch().ReleaseU();
      result = Status::InvalidArgument("point already exists");
      break;
    }
    if (!node.CanFit(pkey.size(), value.size())) {
      s = SplitForInsert(&op, &leaf, pkey);
      if (!s.ok()) return s;
      continue;
    }
    leaf.latch().PromoteUToX();
    s = LogAndApply(ctx_, txn, leaf, PageOp::kNodeInsert,
                    NodeRef::InsertPayload(pkey, value), PageOp::kNodeDelete,
                    NodeRef::DeletePayload(pkey));
    leaf.latch().ReleaseX();
    result = s;
    break;
  }
  FlushPending(&op);
  return result;
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status MdTree::Get(Transaction* txn, uint32_t x, uint32_t y,
                   std::string* value) NO_THREAD_SAFETY_ANALYSIS {
  std::string pkey = PointKey(x, y);
  OpCtx op;
  op.txn = txn;
  PageHandle leaf;
  PITREE_RETURN_IF_ERROR(
      DescendTo(&op, MdPolicy{x, y}, pkey, LatchMode::kShared, &leaf));
  std::string rname = RecordLockName(root_, pkey);
  Status s = ctx_->locks->Lock(txn, rname, LockMode::kS, /*wait=*/false);
  if (s.IsBusy()) {
    leaf.latch().ReleaseS();
    leaf.Reset();
    PITREE_RETURN_IF_ERROR(
        ctx_->locks->Lock(txn, rname, LockMode::kS, /*wait=*/true));
    PITREE_RETURN_IF_ERROR(
        DescendTo(&op, MdPolicy{x, y}, pkey, LatchMode::kShared, &leaf));
  } else if (!s.ok()) {
    leaf.latch().ReleaseS();
    return s;
  }
  NodeRef node(leaf.data());
  bool found;
  int slot = node.FindSlot(pkey, &found);
  Status result;
  if (found) {
    if (value != nullptr) *value = node.EntryValue(slot).ToString();
    result = Status::OK();
  } else {
    result = Status::NotFound("point absent");
  }
  leaf.latch().ReleaseS();
  leaf.Reset();
  FlushPending(&op);
  return result;
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status MdTree::Delete(Transaction* txn, uint32_t x, uint32_t y)
    NO_THREAD_SAFETY_ANALYSIS {
  std::string pkey = PointKey(x, y);
  OpCtx op;
  op.txn = txn;
  Status result;
  for (;;) {
    PageHandle leaf;
    PITREE_RETURN_IF_ERROR(
        DescendTo(&op, MdPolicy{x, y}, pkey, LatchMode::kUpdate, &leaf));
    std::string rname = RecordLockName(root_, pkey);
    Status s = ctx_->locks->Lock(txn, rname, LockMode::kX, /*wait=*/false);
    if (s.IsBusy()) {
      leaf.latch().ReleaseU();
      leaf.Reset();
      PITREE_RETURN_IF_ERROR(
          ctx_->locks->Lock(txn, rname, LockMode::kX, /*wait=*/true));
      continue;
    }
    if (!s.ok()) return s;
    NodeRef node(leaf.data());
    bool found;
    int slot = node.FindSlot(pkey, &found);
    if (!found) {
      leaf.latch().ReleaseU();
      result = Status::NotFound("point absent");
      break;
    }
    std::string old = node.EntryValue(slot).ToString();
    leaf.latch().PromoteUToX();
    s = LogAndApply(ctx_, txn, leaf, PageOp::kNodeDelete,
                    NodeRef::DeletePayload(pkey), PageOp::kNodeInsert,
                    NodeRef::InsertPayload(pkey, old));
    leaf.latch().ReleaseX();
    result = s;
    break;
  }
  FlushPending(&op);
  return result;
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status MdTree::RangeQuery(Transaction* txn, const MdRect& query,
                          std::vector<MdPoint>* out) NO_THREAD_SAFETY_ANALYSIS {
  out->clear();
  // BFS over every node whose rectangle intersects the query, collecting
  // points from leaves; visited-set suppresses duplicates from clipping.
  std::vector<PageId> frontier = {root_};
  std::map<PageId, bool> visited;
  std::map<std::string, MdPoint> results;
  while (!frontier.empty()) {
    PageId pid = frontier.back();
    frontier.pop_back();
    if (visited[pid]) continue;
    visited[pid] = true;
    PageHandle h;
    PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(pid, &h));
    h.latch().AcquireS();
    NodeRef node(h.data());
    MdRect rect;
    Status rs = NodeRect(node, &rect);
    if (!rs.ok()) {
      h.latch().ReleaseS();
      return rs;
    }
    for (int i = 0; i < node.entry_count(); ++i) {
      Slice key = node.EntryKey(i);
      if (key.empty()) continue;
      if (key[0] == kPrefixPoint) {
        uint32_t x, y;
        if (DecodePointKey(key, &x, &y) && query.Contains(x, y)) {
          results[key.ToString()] = {x, y, node.EntryValue(i).ToString()};
        }
      } else {  // sibling or index term
        MdRect r;
        if (!DecodeRect(Slice(key.data() + 1, key.size() - 1), &r)) continue;
        if (!r.Intersects(query)) continue;
        PageId next = kInvalidPageId;
        if (key[0] == kPrefixIndex) {
          IndexTerm t;
          if (DecodeIndexTerm(node.EntryValue(i), &t)) next = t.child;
        } else {
          Slice v = node.EntryValue(i);
          if (v.size() >= 4) next = DecodeFixed32(v.data());
        }
        if (next != kInvalidPageId && !visited[next]) {
          frontier.push_back(next);
        }
      }
    }
    h.latch().ReleaseS();
  }
  for (auto& [key, pt] : results) out->push_back(std::move(pt));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Auditing / figure support
// ---------------------------------------------------------------------------

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status MdTree::CheckCoverage(
    const std::vector<std::pair<uint32_t, uint32_t>>& probes,
    std::string* report) const NO_THREAD_SAFETY_ANALYSIS {
  std::ostringstream errors;
  int bad = 0;
  for (const auto& [x, y] : probes) {
    PageHandle leaf;
    Status s =
        DescendTo(nullptr, MdPolicy{x, y}, "", LatchMode::kShared, &leaf);
    if (!s.ok()) {
      errors << "probe (" << x << "," << y << "): " << s.ToString() << "\n";
      ++bad;
      continue;
    }
    leaf.latch().ReleaseS();
  }
  if (bad > 0) {
    if (report != nullptr) *report = errors.str();
    return Status::Corruption("md coverage violated");
  }
  if (report != nullptr) report->clear();
  return Status::OK();
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status MdTree::DumpStructure(std::string* out) const NO_THREAD_SAFETY_ANALYSIS {
  std::ostringstream os;
  std::vector<PageId> frontier = {root_};
  std::map<PageId, bool> visited;
  while (!frontier.empty()) {
    PageId pid = frontier.back();
    frontier.pop_back();
    if (visited[pid]) continue;
    visited[pid] = true;
    PageHandle h;
    PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(pid, &h));
    h.latch().AcquireS();
    NodeRef node(h.data());
    MdRect rect;
    NodeRect(node, &rect).ok();
    os << (node.is_leaf() ? "data" : "index") << " node " << pid
       << " level " << int(node.level()) << " rect " << rect.ToString()
       << (node.is_root() ? " (root)" : "") << "\n";
    for (int i = 0; i < node.entry_count(); ++i) {
      Slice key = node.EntryKey(i);
      if (key.empty()) continue;
      MdRect r;
      if (key[0] == kPrefixIndex &&
          DecodeRect(Slice(key.data() + 1, key.size() - 1), &r)) {
        IndexTerm t;
        DecodeIndexTerm(node.EntryValue(i), &t);
        os << "    index term " << r.ToString() << " -> node " << t.child
           << ((t.flags & kIndexEntryMultiParent) ? "  [MULTI-PARENT]" : "")
           << "\n";
        if (!visited[t.child]) frontier.push_back(t.child);
      } else if (key[0] == kPrefixSibling &&
                 DecodeRect(Slice(key.data() + 1, key.size() - 1), &r)) {
        Slice v = node.EntryValue(i);
        PageId sib = v.size() >= 4 ? DecodeFixed32(v.data()) : kInvalidPageId;
        os << "    sibling term " << r.ToString() << " -> node " << sib
           << "\n";
        if (sib != kInvalidPageId && !visited[sib]) frontier.push_back(sib);
      }
    }
    h.latch().ReleaseS();
  }
  *out = os.str();
  return Status::OK();
}

}  // namespace pitree

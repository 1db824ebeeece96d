// lint:allow-naked-latch -- splits X-latch fresh nodes, history walks
// S-couple; descents run through the pitree/descent.h kernel, structure
// changes through pitree/smo.h.
#include "common/thread_annotations.h"
#include "tsb/tsb_tree.h"

#include <sstream>

#include "common/coding.h"
#include "engine/log_apply.h"
#include "mvcc/timestamp_oracle.h"
#include "txn/lock_manager.h"

namespace pitree {

const char* TsbTree::kHistoryEntryKey = "\x01H";

namespace {
// Value tagging: first byte distinguishes live data from tombstones.
constexpr char kValueTagData = 0x01;
constexpr char kValueTagTombstone = 0x00;

std::string TagValue(bool tombstone, const Slice& v) {
  std::string out(1, tombstone ? kValueTagTombstone : kValueTagData);
  out.append(v.data(), v.size());
  return out;
}

/// True when version `all[i]` is dead once its node is time-split: a later
/// version of the same key follows it, or it is a tombstone.
bool DeadVersion(const std::vector<NodeEntry>& all, size_t i) {
  Slice key, next;
  TsbTime t;
  if (i + 1 < all.size() && TsbTree::SplitComposite(all[i].key, &key, &t) &&
      TsbTree::SplitComposite(all[i + 1].key, &next, &t) && next == key) {
    return true;
  }
  return !all[i].value.empty() && all[i].value[0] == kValueTagTombstone;
}

bool ValidUserKey(const Slice& key) {
  if (key.empty()) return false;
  if (static_cast<unsigned char>(key[0]) < 0x20) return false;
  for (size_t i = 0; i < key.size(); ++i) {
    if (key[i] == '\0') return false;
  }
  return true;
}
}  // namespace

std::string TsbTree::CompositeKey(const Slice& key, TsbTime t) {
  std::string out(key.data(), key.size());
  out.push_back('\0');
  // Big-endian so later versions of the same key sort after earlier ones.
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>((t >> shift) & 0xff));
  }
  return out;
}

bool TsbTree::SplitComposite(const Slice& composite, Slice* key, TsbTime* t) {
  if (composite.size() < 9) return false;
  size_t klen = composite.size() - 9;
  if (composite[klen] != '\0') return false;
  *key = Slice(composite.data(), klen);
  TsbTime v = 0;
  for (size_t i = klen + 1; i < composite.size(); ++i) {
    v = (v << 8) | static_cast<unsigned char>(composite[i]);
  }
  *t = v;
  return true;
}

std::string TsbTree::EncodeHistoryTerm(PageId page, TsbTime t) {
  std::string out;
  PutFixed32(&out, page);
  PutFixed64(&out, t);
  return out;
}

bool TsbTree::DecodeHistoryTerm(const Slice& v, HistoryTerm* term) {
  Slice in = v;
  uint32_t page;
  uint64_t t;
  if (!GetFixed32(&in, &page) || !GetFixed64(&in, &t)) return false;
  term->page = page;
  term->split_time = t;
  return true;
}

bool TsbTree::GetHistoryTerm(const NodeRef& node, HistoryTerm* term) {
  bool found;
  int slot = node.FindSlot(kHistoryEntryKey, &found);
  if (!found) return false;
  return DecodeHistoryTerm(node.EntryValue(slot), term);
}

TsbTree::TsbTree(EngineContext* ctx, PageId root) : SmoTree(ctx, root) {
  Configure({.root_terms = &BlinkPolicy::RootTerms,
             .side_traversals = &stats_.side_traversals,
             .splits = &stats_.key_splits,
             .root_grows = &stats_.root_grows,
             .grow_counts_as_split = false,
             .page_undo = true});
}

TsbTime TsbTree::Now() {
  if (ctx_->oracle != nullptr) return ctx_->oracle->Next();
  return clock_.fetch_add(1) + 1;
}

Status TsbTree::Create(EngineContext* ctx, PageId root) {
  return FormatRoot(ctx, root,
                    NodeRef::FormatPayload(0, kNodeFlagRoot,
                                           kBoundLowNegInf | kBoundHighPosInf,
                                           Slice(), Slice(), kInvalidPageId));
}

// ---------------------------------------------------------------------------
// Traversal
// ---------------------------------------------------------------------------

TsbPolicy::TsbPolicy(const Slice& key, TsbTime t)
    : key_(key),
      t_(t),
      composite_(TsbTree::CompositeKey(key, 0)),
      probe_(TsbTree::CompositeKey(key, t)),
      current_{composite_} {}

Answer TsbPolicy::Resolve(const NodeRef& node, std::string* value) const {
  // Each node on the history chain holds, per key, the latest version at or
  // before its split time plus everything newer — so if this node has any
  // version <= t for the key, it is the correct answer; only when it has
  // none may the answer lie further back along the history pointer.
  bool found;
  int slot = node.FindSlot(probe_, &found);
  int candidate = found ? slot : slot - 1;
  if (candidate >= 0) {
    Slice ukey;
    TsbTime vt;
    if (TsbTree::SplitComposite(node.EntryKey(candidate), &ukey, &vt) &&
        ukey == key_) {
      Slice v = node.EntryValue(candidate);
      if (v.empty() || v[0] != kValueTagData) {
        return {Status::NotFound("tombstoned")};
      }
      if (value != nullptr) value->assign(v.data() + 1, v.size() - 1);
      return {Status::OK()};
    }
  }
  TsbTree::HistoryTerm hist;
  if (TsbTree::GetHistoryTerm(node, &hist) && t_ <= hist.split_time) {
    // The requested time predates this node's directly contained history:
    // follow the history sibling pointer (Figure 1).
    return {Status::OK(), hist.page};
  }
  return {Status::NotFound("no version")};
}

Status TsbTree::Search(OpCtx* op, const CompletionJob& job, Descent* d) {
  d->target_level = job.level;
  d->target_mode = LatchMode::kUpdate;
  return Traverse(op, BlinkPolicy{job.key}, job.key, d);
}

Status TsbTree::ExecuteJob(const CompletionJob& job) {
  if (job.kind != CompletionJob::Kind::kPostIndexTerm) {
    return Status::InvalidArgument("tsb: unsupported job kind");
  }
  return PostIndexTerm(BlinkPolicy{job.key}, job);
}

// ---------------------------------------------------------------------------
// Splits (atomic actions)
// ---------------------------------------------------------------------------

// lint:tsa-escape -- atomic-action SMO: latches flow across helpers and
// error paths; checked by the runtime checker and tools/analyze.
Status TsbTree::TimeSplit(Transaction* owner, PageHandle& leaf, TsbTime t)
    NO_THREAD_SAFETY_ANALYSIS {
  NodeRef node(leaf.data());
  // The new historical node is a full copy of the current node: it covers
  // the same key space for all times up to t, and it inherits the prior
  // history sibling term (Figure 1: "new historic nodes contain copies of
  // old history pointers" — the copy happens for free).
  std::vector<NodeEntry> all = node.AllEntries();
  std::string image = node.ImagePayload();

  // History nodes keep the key bounds but are not part of the current
  // level's side chain.
  PageHandle hh;
  PITREE_RETURN_IF_ERROR(NewNode(owner, FormatLike(node, 0), all, &hh));
  const PageId hpid = hh.id();
  hh.latch().ReleaseX();
  hh.Reset();

  // Prune the current node: keep, per user key, only the newest version —
  // and drop it too if it is a tombstone (the key is dead at t). Keep the
  // reserved history entry out of the scan; it is replaced below.
  std::vector<NodeEntry> erase;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].key == kHistoryEntryKey) continue;
    Slice ukey;
    TsbTime vt;
    if (!SplitComposite(all[i].key, &ukey, &vt)) {
      return Status::Corruption("tsb: bad composite during time split");
    }
    if (DeadVersion(all, i)) erase.push_back(all[i]);
  }
  Status s;
  if (!erase.empty()) {
    s = LogAndApply(ctx_, owner, leaf, PageOp::kNodeBulkErase,
                    NodeRef::BulkErasePayload(erase), PageOp::kNodeUnsplit,
                    image);
    if (!s.ok()) return s;
  }
  // Install / replace the history sibling term: (new history node, t).
  HistoryTerm prior;
  NodeRef after(leaf.data());
  std::string term = EncodeHistoryTerm(hpid, t);
  if (GetHistoryTerm(after, &prior)) {
    s = LogAndApply(ctx_, owner, leaf, PageOp::kNodeUpdate,
                    NodeRef::UpdatePayload(kHistoryEntryKey, term),
                    PageOp::kNodeUpdate,
                    NodeRef::UpdatePayload(kHistoryEntryKey,
                                           EncodeHistoryTerm(
                                               prior.page,
                                               prior.split_time)));
  } else {
    s = LogAndApply(ctx_, owner, leaf, PageOp::kNodeInsert,
                    NodeRef::InsertPayload(kHistoryEntryKey, term),
                    PageOp::kNodeDelete,
                    NodeRef::DeletePayload(kHistoryEntryKey));
  }
  if (s.ok()) stats_.time_splits.fetch_add(1, std::memory_order_relaxed);
  return s;
}

Status TsbTree::SplitNode(Transaction* owner, PageHandle& leaf,
                          PageId* sibling) {
  NodeRef node(leaf.data());
  // Choose the median *user key* boundary among regular entries.
  std::vector<NodeEntry> all = node.AllEntries();
  std::vector<NodeEntry> regular;
  for (auto& e : all) {
    if (e.key != kHistoryEntryKey) regular.push_back(std::move(e));
  }
  if (regular.size() < 2) return Status::NoSpace("tsb: node unsplittable");
  Slice mid_user;
  TsbTime unused;
  if (!SplitComposite(regular[regular.size() / 2].key, &mid_user, &unused)) {
    return Status::Corruption("tsb: bad composite at split point");
  }
  std::string skey = CompositeKey(mid_user, 0);
  // All versions of the boundary key must move together.
  std::vector<NodeEntry> moved;
  for (const auto& e : regular) {
    if (Slice(e.key).compare(skey) >= 0) moved.push_back(e);
  }
  if (moved.empty() || moved.size() == regular.size()) {
    return Status::NoSpace("tsb: degenerate key split");
  }
  HistoryTerm hist;
  if (GetHistoryTerm(node, &hist)) {
    // Figure 1: "new current nodes contain copies of old history node
    // pointers" — the new node is responsible for the entire history of
    // its key space through this copied pointer. The entry ("\x01H")
    // sorts below the split key, so the source keeps its own.
    moved.insert(moved.begin(),
                 {kHistoryEntryKey,
                  EncodeHistoryTerm(hist.page, hist.split_time)});
  }
  return SplitOffRight(owner, leaf, skey, moved, sibling);
}

Status TsbTree::SplitFullLeaf(Transaction* owner, PageHandle& leaf,
                              PageId made[2], bool* grew) {
  // Policy (§2.2.2): if a meaningful share of the node is historical (dead
  // versions and tombstones), split by time; otherwise split by key.
  std::vector<NodeEntry> all = NodeRef(leaf.data()).AllEntries();
  size_t dead = 0, total = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].key == kHistoryEntryKey) continue;
    ++total;
    if (DeadVersion(all, i)) ++dead;
  }
  if (total == 0 || dead * 5 < total) return Split(owner, leaf, made, grew);
  made[0] = made[1] = kInvalidPageId;
  *grew = false;
  return TimeSplit(owner, leaf, Now());
}

bool TsbTree::MovesOwnRecords(Transaction* user, const NodeRef& leaf) const {
  // Undo is page-oriented, and a key split moves versions while a time
  // split prunes superseded ones and tombstones: either may take away a
  // version the transaction has yet to commit. Conservatively, any version
  // of a key it holds X-locked makes the split its own.
  for (int i = 0; i < leaf.entry_count(); ++i) {
    Slice key;
    TsbTime t;
    if (!SplitComposite(leaf.EntryKey(i), &key, &t)) continue;
    auto it = user->held_locks.find(RecordLockName(root_, key));
    if (it != user->held_locks.end() && it->second == LockMode::kX) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Record operations
// ---------------------------------------------------------------------------

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status TsbTree::WriteVersion(Transaction* txn, const Slice& key, TsbTime t,
                             bool tombstone, const Slice& value)
    NO_THREAD_SAFETY_ANALYSIS {
  if (!ValidUserKey(key)) return Status::InvalidArgument("bad tsb key");
  std::string composite = CompositeKey(key, t);
  std::string tagged = TagValue(tombstone, value);
  TsbPolicy policy(key, t);
  OpCtx op;
  op.txn = txn;
  Status result;
  for (;;) {
    PageHandle leaf;
    PITREE_RETURN_IF_ERROR(DescendTo(&op, policy, policy.current_key(),
                                     LatchMode::kUpdate, &leaf));
    // Updaters declare themselves on the page granule (move-lock protocol).
    // The lock name must be captured before the Busy path resets the handle:
    // leaf.id() on a reset handle is invalid.
    std::string pname = PageLockName(leaf.id());
    Status s = ctx_->locks->Lock(txn, pname, LockMode::kIU, /*wait=*/false);
    if (s.IsBusy()) {
      leaf.latch().ReleaseU();
      leaf.Reset();
      PITREE_RETURN_IF_ERROR(
          ctx_->locks->Lock(txn, pname, LockMode::kIU, /*wait=*/true));
      continue;
    }
    if (!s.ok()) return s;
    // Record lock on the user key, No-Wait discipline.
    std::string rname = RecordLockName(root_, key);
    s = ctx_->locks->Lock(txn, rname, LockMode::kX, /*wait=*/false);
    if (s.IsBusy()) {
      leaf.latch().ReleaseU();
      leaf.Reset();
      PITREE_RETURN_IF_ERROR(
          ctx_->locks->Lock(txn, rname, LockMode::kX, /*wait=*/true));
      continue;
    }
    if (!s.ok()) return s;

    NodeRef node(leaf.data());
    // Monotonicity: t must exceed the newest version of this key here.
    bool found;
    int slot = node.FindSlot(composite, &found);
    if (found) {
      leaf.latch().ReleaseU();
      result = Status::InvalidArgument("tsb: version already exists");
      break;
    }
    // Monotonicity: reject if any version of this key at time >= t exists
    // (the entry at `slot` would be a later version of the same key).
    if (slot < node.entry_count()) {
      Slice nkey;
      TsbTime nt;
      if (SplitComposite(node.EntryKey(slot), &nkey, &nt) && nkey == key) {
        leaf.latch().ReleaseU();
        result = Status::InvalidArgument("tsb: non-monotonic version time");
        break;
      }
    }
    if (!node.CanFit(composite.size(), tagged.size())) {
      s = SplitForInsert(&op, &leaf, policy.current_key());
      if (!s.ok()) return s;
      continue;
    }
    leaf.latch().PromoteUToX();
    s = LogAndApply(ctx_, txn, leaf, PageOp::kNodeInsert,
                    NodeRef::InsertPayload(composite, tagged),
                    PageOp::kNodeDelete, NodeRef::DeletePayload(composite));
    leaf.latch().ReleaseX();
    result = s;
    break;
  }
  FlushPending(&op);
  return result;
}

Status TsbTree::Put(Transaction* txn, const Slice& key, const Slice& value,
                    TsbTime t) {
  return WriteVersion(txn, key, t, /*tombstone=*/false, value);
}

Status TsbTree::Erase(Transaction* txn, const Slice& key, TsbTime t) {
  return WriteVersion(txn, key, t, /*tombstone=*/true, Slice());
}

TsbTime TsbTree::AllocateVersionTs(Transaction* txn) {
  TimestampOracle* oracle = ctx_->oracle;
  if (oracle == nullptr) return Now();
  if (txn->mvcc_write_ts == 0) {
    // First write: register as an active writer. Until the commit is
    // published (or the transaction ends), snapshots stay strictly below
    // this timestamp — and every later timestamp the transaction draws is
    // larger, so none of its versions can leak into a snapshot.
    txn->mvcc_write_ts = oracle->RegisterWriter(txn->id);
    return txn->mvcc_write_ts;
  }
  return oracle->Next();
}

Status TsbTree::WriteCurrent(Transaction* txn, const Slice& key,
                             bool tombstone, const Slice& value) {
  if (!ValidUserKey(key)) return Status::InvalidArgument("bad tsb key");
  Status s;
  for (int attempt = 0; attempt < 8; ++attempt) {
    s = WriteVersion(txn, key, AllocateVersionTs(txn), tombstone, value);
    if (!s.IsInvalidArgument()) return s;
    // Stale timestamp: another writer committed a newer version of this
    // key between our allocation and our lock acquisition. We now hold the
    // record X lock (WriteVersion keeps its 2PL locks on this path), so a
    // freshly allocated timestamp exceeds every committed version and the
    // retry succeeds; the loop bound is sheer paranoia.
  }
  return s;
}

Status TsbTree::Put(Transaction* txn, const Slice& key, const Slice& value) {
  return WriteCurrent(txn, key, /*tombstone=*/false, value);
}

Status TsbTree::Erase(Transaction* txn, const Slice& key) {
  return WriteCurrent(txn, key, /*tombstone=*/true, Slice());
}

// ---------------------------------------------------------------------------
// As-of reads — optimistic first, latched fallback (DESIGN.md §15, §17)
// ---------------------------------------------------------------------------

Status TsbTree::GetAsOf(Transaction* txn, const Slice& key, TsbTime t,
                        std::string* value) {
  if (!ValidUserKey(key)) return Status::InvalidArgument("bad tsb key");
  // Lock-first 2PL (DESIGN.md §15): the record lock name needs no descent,
  // so the S lock (held to end of transaction) is taken before any latch —
  // the blocking wait is trivially No-Wait-safe (§4.1.2), and both read
  // paths below then run under it.
  if (txn != nullptr) {
    PITREE_RETURN_IF_ERROR(ctx_->locks->Lock(
        txn, RecordLockName(root_, key), LockMode::kS, /*wait=*/true));
  }
  TsbPolicy policy(key, t);
  OpCtx op;
  op.txn = txn;
  OptimisticTrace trace;
  Status s = OptimisticGet(ctx_->pool, root_, policy, value,
                           {&stats_.side_traversals, &stats_.history_hops},
                           &trace);
  if (!s.IsBusy()) {
    stats_.optimistic_gets.fetch_add(1, std::memory_order_relaxed);
    ScheduleHops(&op, trace.side_hops, policy.current_key());
  } else {
    stats_.optimistic_fallbacks.fetch_add(1, std::memory_order_relaxed);
    PageHandle cur;
    PITREE_RETURN_IF_ERROR(DescendTo(&op, policy, policy.current_key(),
                                     LatchMode::kShared, &cur));
    s = ResolveLatched(ctx_->pool, policy, std::move(cur), value,
                       &stats_.history_hops);
  }
  FlushPending(&op);
  return s;
}

Status TsbTree::SnapshotGet(const Slice& key, TsbTime t, std::string* value) {
  if (!ValidUserKey(key)) return Status::InvalidArgument("bad tsb key");
  // Latch-free AND lock-free: every version at or below a snapshot
  // timestamp is committed and immutable, so a validated copy chain needs
  // no record lock at all (DESIGN.md §15), and the latched fallback needs
  // only §4.1 latches — time splits only copy versions toward history
  // nodes, so a latched traversal always finds them. A snapshot reader is
  // invisible to the 2PL side: no locks and no completion scheduling.
  TsbPolicy policy(key, t);
  OptimisticTrace trace;
  Status s = OptimisticGet(ctx_->pool, root_, policy, value,
                           {&stats_.side_traversals, &stats_.history_hops},
                           &trace);
  if (!s.IsBusy()) {
    stats_.optimistic_gets.fetch_add(1, std::memory_order_relaxed);
    return s;
  }
  stats_.optimistic_fallbacks.fetch_add(1, std::memory_order_relaxed);
  PageHandle cur;
  PITREE_RETURN_IF_ERROR(DescendTo(nullptr, policy, policy.current_key(),
                                   LatchMode::kShared, &cur));
  return ResolveLatched(ctx_->pool, policy, std::move(cur), value,
                        &stats_.history_hops);
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status TsbTree::ScanAsOf(const Slice& start, const Slice& end, TsbTime t,
                         size_t limit, std::vector<TsbScanEntry>* out)
    NO_THREAD_SAFETY_ANALYSIS {
  out->clear();
  // Empty start = from the first key (the empty string sorts before every
  // valid user key, so descending on it lands in the leftmost leaf).
  if (!start.empty() && !ValidUserKey(start)) {
    return Status::InvalidArgument("bad tsb key");
  }
  if (limit == 0) return Status::OK();
  std::string cursor(start.data(), start.size());
  bool done = false;
  while (!done) {
    PageHandle cur;
    TsbPolicy policy(cursor, t);
    PITREE_RETURN_IF_ERROR(DescendTo(nullptr, policy, policy.current_key(),
                                     LatchMode::kShared, &cur));
    // The current leaf's high key bounds the user-key range this round
    // resolves. It must be captured before any history descent: sibling
    // leaves share history nodes after key splits, so a historical node
    // may cover a wider range than the leaf that led to it, and scanning
    // past the leaf's bound would duplicate keys the next round re-reads.
    bool upper_inf;
    std::string upper;
    {
      NodeRef leaf(cur.data());
      upper_inf = leaf.high_is_pos_inf();
      if (!upper_inf) {
        Slice ukey;
        TsbTime unused;
        // Leaf bounds are CompositeKey(user, 0) (KeySplit separators).
        if (!SplitComposite(leaf.high_key(), &ukey, &unused)) {
          cur.latch().ReleaseS();
          return Status::Corruption("tsb: bad leaf high key");
        }
        upper.assign(ukey.data(), ukey.size());
      }
    }
    // Walk to the chain node whose time interval contains `t`: a history
    // node is a full copy of the node at its split time, so the first node
    // with split coverage at or past `t` holds, for every key in range,
    // the latest version at or before `t` (earlier prunes removed only
    // versions superseded by, or keys dead before, that node's interval).
    for (;;) {
      NodeRef node(cur.data());
      HistoryTerm hist;
      if (!GetHistoryTerm(node, &hist) || t > hist.split_time) break;
      PageHandle hh;
      Status s = ctx_->pool->FetchPage(hist.page, &hh);
      if (!s.ok()) {
        cur.latch().ReleaseS();
        return s;
      }
      stats_.history_hops.fetch_add(1, std::memory_order_relaxed);
      hh.latch().AcquireS();
      cur.latch().ReleaseS();
      cur = std::move(hh);
    }
    // Enumerate user keys in [cursor, upper ∩ end) at time t: versions of
    // one key are adjacent and time-ascending, so track the best (latest
    // at-or-before t) version per key and emit on key change.
    NodeRef node(cur.data());
    std::string probe = CompositeKey(cursor, 0);
    bool found;
    int slot = node.FindSlot(probe, &found);
    std::string pend_key;
    Slice pend_val;
    TsbTime pend_time = 0;
    bool pend_live = false;
    auto emit = [&]() {
      if (!pend_key.empty() && pend_live) {
        TsbScanEntry e;
        e.key = pend_key;
        e.time = pend_time;
        e.value.assign(pend_val.data() + 1, pend_val.size() - 1);
        out->push_back(std::move(e));
      }
      pend_key.clear();
      pend_live = false;
    };
    for (int i = slot; i < node.entry_count() && !done; ++i) {
      Slice ekey = node.EntryKey(i);
      if (ekey == kHistoryEntryKey) continue;
      Slice ukey;
      TsbTime vt;
      if (!SplitComposite(ekey, &ukey, &vt)) {
        cur.latch().ReleaseS();
        return Status::Corruption("tsb: bad composite in scan");
      }
      if (ukey.compare(cursor) < 0) continue;  // historical node is wider
      if (!upper_inf && ukey.compare(upper) >= 0) break;
      if (!end.empty() && ukey.compare(end) >= 0) {
        // Entries are sorted, so the previous key's versions are complete.
        emit();
        done = true;
        break;
      }
      if (ukey != pend_key) {
        emit();
        if (out->size() >= limit) {
          done = true;
          break;
        }
        pend_key.assign(ukey.data(), ukey.size());
      }
      if (vt <= t) {
        Slice v = node.EntryValue(i);
        pend_time = vt;
        pend_val = v;
        pend_live = !v.empty() && v[0] == kValueTagData;
      }
    }
    if (!done) {
      emit();
      if (out->size() >= limit) done = true;
    }
    cur.latch().ReleaseS();
    cur.Reset();
    if (upper_inf) break;
    if (!end.empty() && upper >= end.ToString()) break;
    cursor = upper;
  }
  return Status::OK();
}

// lint:tsa-escape -- latch spans cross helper boundaries (the descent
// acquires, this function releases); checked by the runtime checker and
// tools/analyze.
Status TsbTree::History(Transaction* txn, const Slice& key,
                        std::vector<TsbVersion>* versions)
    NO_THREAD_SAFETY_ANALYSIS {
  versions->clear();
  if (!ValidUserKey(key)) return Status::InvalidArgument("bad tsb key");
  (void)txn;
  PageHandle cur;
  TsbPolicy policy(key, kTsbTimeMax);
  PITREE_RETURN_IF_ERROR(DescendTo(nullptr, policy, policy.current_key(),
                                   LatchMode::kShared, &cur));
  std::string hi = CompositeKey(key, kTsbTimeMax);
  TsbTime oldest_seen = kTsbTimeMax;
  for (;;) {
    NodeRef node(cur.data());
    bool found;
    int slot = node.FindSlot(hi, &found);
    for (int i = (found ? slot : slot - 1); i >= 0; --i) {
      Slice ukey;
      TsbTime vt;
      if (!SplitComposite(node.EntryKey(i), &ukey, &vt) || ukey != key) {
        break;
      }
      if (vt >= oldest_seen) continue;  // duplicate of a newer node's copy
      oldest_seen = vt;
      Slice v = node.EntryValue(i);
      TsbVersion ver;
      ver.time = vt;
      ver.deleted = v.empty() || v[0] == kValueTagTombstone;
      if (!ver.deleted) ver.value.assign(v.data() + 1, v.size() - 1);
      versions->push_back(std::move(ver));
    }
    HistoryTerm hist;
    if (GetHistoryTerm(node, &hist)) {
      PageHandle hh;
      Status s = ctx_->pool->FetchPage(hist.page, &hh);
      if (!s.ok()) {
        cur.latch().ReleaseS();
        return s;
      }
      stats_.history_hops.fetch_add(1, std::memory_order_relaxed);
      hh.latch().AcquireS();
      cur.latch().ReleaseS();
      cur = std::move(hh);
      continue;
    }
    cur.latch().ReleaseS();
    break;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Checking and dumping
// ---------------------------------------------------------------------------

Status TsbTree::CheckWellFormed(std::string* report) const {
  std::ostringstream errors;
  int bad = 0;
  auto fail = [&](PageId pid, const std::string& what) {
    errors << "tsb node " << pid << ": " << what << "\n";
    ++bad;
  };
  PageHandle root_h;
  PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(root_, &root_h));
  NodeRef root(root_h.data());
  if (!root.is_root() || !root.low_is_neg_inf() || !root.high_is_pos_inf()) {
    fail(root_, "root boundary violation");
  }
  // Walk each level's side chain (current nodes only), then audit each
  // leaf's history chain for descending split times and key-bound coverage.
  PageId leftmost = root_;
  for (int level = root.level(); level >= 0; --level) {
    PageId pid = leftmost;
    PageId next_leftmost = kInvalidPageId;
    bool first = true;
    std::string prev_high;
    bool prev_inf = false;
    while (pid != kInvalidPageId) {
      PageHandle h;
      PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(pid, &h));
      NodeRef node(h.data());
      if (node.level() != level) fail(pid, "level mismatch");
      if (first) {
        if (!node.low_is_neg_inf()) fail(pid, "first node low != -inf");
      } else if (!prev_inf &&
                 (node.low_is_neg_inf() ||
                  node.low_key().compare(Slice(prev_high)) != 0)) {
        fail(pid, "low does not match previous high");
      }
      for (int i = 1; i < node.entry_count(); ++i) {
        if (node.EntryKey(i - 1).compare(node.EntryKey(i)) >= 0) {
          fail(pid, "entries out of order");
        }
      }
      if (level == 0) {
        // History chain: strictly decreasing split times.
        HistoryTerm hist;
        NodeRef cursor(h.data());
        PageHandle walk_h;
        TsbTime prev_time = kTsbTimeMax;
        int hops = 0;
        while (GetHistoryTerm(cursor, &hist)) {
          if (hist.split_time >= prev_time) {
            fail(pid, "history split times not decreasing");
            break;
          }
          prev_time = hist.split_time;
          if (++hops > 1 << 12) {
            fail(pid, "history chain too long / cyclic");
            break;
          }
          // Into a fresh handle: FetchPage assigns it under the pool's
          // shard mutex, where unpinning the previous page must not happen.
          PageHandle next;
          PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(hist.page, &next));
          walk_h = std::move(next);
          cursor = NodeRef(walk_h.data());
        }
      } else if (first && node.entry_count() > 0) {
        IndexTerm term;
        if (DecodeIndexTerm(node.EntryValue(0), &term)) {
          next_leftmost = term.child;
        }
      }
      prev_inf = node.high_is_pos_inf();
      prev_high = prev_inf ? "" : node.high_key().ToString();
      first = false;
      pid = node.right_sibling();
    }
    if (!prev_inf) fail(leftmost, "level does not reach +inf");
    if (level > 0) {
      if (next_leftmost == kInvalidPageId) {
        fail(leftmost, "no leftmost child");
        break;
      }
      leftmost = next_leftmost;
    }
  }
  if (bad > 0) {
    if (report != nullptr) *report = errors.str();
    return Status::Corruption("tsb tree not well-formed");
  }
  if (report != nullptr) report->clear();
  return Status::OK();
}

Status TsbTree::DumpStructure(std::string* out) const {
  std::ostringstream os;
  PageHandle root_h;
  PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(root_, &root_h));
  NodeRef root(root_h.data());
  // Find the leftmost leaf.
  PageId pid = root_;
  for (int level = root.level(); level > 0; --level) {
    PageHandle h;
    PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(pid, &h));
    NodeRef node(h.data());
    IndexTerm term;
    if (node.entry_count() == 0 ||
        !DecodeIndexTerm(node.EntryValue(0), &term)) {
      return Status::Corruption("tsb dump: bad index node");
    }
    pid = term.child;
  }
  // Walk current leaves left to right; for each, its history chain.
  while (pid != kInvalidPageId) {
    PageHandle h;
    PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(pid, &h));
    NodeRef node(h.data());
    // Boundary keys are composites (user key · 0x00 · time); print only the
    // user-key part so the dump is NUL-free text.
    auto user_part = [](const Slice& composite) {
      Slice key;
      TsbTime t;
      if (SplitComposite(composite, &key, &t)) return key.ToString();
      return composite.ToString();
    };
    auto bounds = [&](const NodeRef& n) {
      std::ostringstream b;
      b << "[" << (n.low_is_neg_inf() ? "-inf" : user_part(n.low_key()))
        << ", " << (n.high_is_pos_inf() ? "+inf" : user_part(n.high_key()))
        << ")";
      return b.str();
    };
    os << "current node " << pid << " keys " << bounds(node) << " entries "
       << node.entry_count();
    HistoryTerm hist;
    NodeRef cursor(h.data());
    PageHandle hold;
    std::vector<std::string> chain;
    while (GetHistoryTerm(cursor, &hist)) {
      PageHandle hh;
      PITREE_RETURN_IF_ERROR(ctx_->pool->FetchPage(hist.page, &hh));
      std::ostringstream c;
      c << "history node " << hist.page << " (times <= " << hist.split_time
        << ") keys " << bounds(NodeRef(hh.data()));
      chain.push_back(c.str());
      hold = std::move(hh);
      cursor = NodeRef(hold.data());
    }
    os << "\n";
    for (const auto& c : chain) os << "    -> " << c << "\n";
    pid = node.right_sibling();
  }
  *out = os.str();
  return Status::OK();
}

}  // namespace pitree

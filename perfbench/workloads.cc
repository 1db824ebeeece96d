#include "workloads.h"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <thread>

#include "trace.h"

namespace perfbench {

using pitree::Database;
using pitree::NodeEntry;
using pitree::PiTree;
using pitree::Random;
using pitree::Slice;
using pitree::Status;
using pitree::Transaction;
using pitree::TsbScanEntry;
using pitree::TsbTree;

namespace {

constexpr int kMaxAttempts = 64;
constexpr size_t kValueBytes = 100;
constexpr size_t kLoadBatch = 1000;  // records per load transaction

std::string NumKey(char prefix, uint64_t i) {
  char buf[24];
  snprintf(buf, sizeof(buf), "%c%09" PRIu64, prefix, i);
  return buf;
}

/// Deterministic value of `size` bytes for `key` under `seed`: the key,
/// then the seed, then filler. Checks compare answers against it.
std::string ValueFor(const std::string& key, uint64_t seed, size_t size) {
  char buf[24];
  snprintf(buf, sizeof(buf), "/%016" PRIx64 "/", seed);
  std::string v = key + buf;
  v.resize(size, static_cast<char>('a' + seed % 26));
  return v;
}

// -- traced calls into the layers -------------------------------------------

Transaction* Begin(Database* db) {
  ScopedSpan span(kTxnBegin);
  return db->Begin();
}
Status Commit(Database* db, Transaction* txn) {
  ScopedSpan span(kTxnCommit);
  return db->Commit(txn);
}
void Abort(Database* db, Transaction* txn) {
  ScopedSpan span(kTxnAbort);
  (void)db->Abort(txn);
}
Status PiGet(PiTree* t, Transaction* txn, const std::string& key,
             std::string* value) {
  ScopedSpan span(kPiGet);
  return t->Get(txn, key, value);
}
Status PiUpdate(PiTree* t, Transaction* txn, const std::string& key,
                const std::string& value) {
  ScopedSpan span(kPiUpdate);
  return t->Update(txn, key, value);
}
Status PiInsert(PiTree* t, Transaction* txn, const std::string& key,
                const std::string& value) {
  ScopedSpan span(kPiInsert);
  return t->Insert(txn, key, value);
}
Status PiScan(PiTree* t, Transaction* txn, const std::string& start,
              size_t limit, std::vector<NodeEntry>* out) {
  ScopedSpan span(kPiScan);
  return t->Scan(txn, start, limit, out);
}
Status TsbGet(TsbTree* t, Transaction* txn, const std::string& key,
              std::string* value) {
  ScopedSpan span(kTsbGet);
  return t->Get(txn, key, value);
}
Status TsbPut(TsbTree* t, Transaction* txn, const std::string& key,
              const std::string& value) {
  ScopedSpan span(kTsbPut);
  return t->Put(txn, key, value);
}

/// Runs `body` as one transaction and commits it, retrying deadlock and
/// busy victims. `writes` marks transactions whose commit is logged.
template <typename Body>
bool Transact(Database* db, ClientCounts* c, bool writes, Body&& body) {
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (attempt > 0) ++c->retries;
    Transaction* txn = Begin(db);
    Status s = body(txn);
    if (s.ok()) {
      if (writes) ++c->commit_calls;
      s = Commit(db, txn);
      if (s.ok()) {
        if (writes) ++c->commits;
        return true;
      }
    }
    Abort(db, txn);
    if (!s.IsDeadlock() && !s.IsBusy()) return false;
    std::this_thread::yield();
  }
  return false;
}

/// Scans all of `tree` in batches; calls `fn` on every row.
template <typename Fn>
Status ScanAll(Database* db, PiTree* tree, Fn&& fn) {
  std::string start;
  std::vector<NodeEntry> rows;
  while (true) {
    rows.clear();
    Transaction* txn = db->Begin();
    Status s = tree->Scan(txn, start, 4096, &rows);
    Status c = db->Commit(txn);
    if (!s.ok()) return s;
    if (!c.ok()) return c;
    for (const auto& r : rows) fn(r);
    if (rows.size() < 4096) return Status::OK();
    start = rows.back().key;
    start.push_back('\0');  // the least key after the last one seen
  }
}

bool WellFormed(PiTree* tree, const char* name, std::string* err) {
  std::string report;
  if (tree->CheckWellFormed(&report).ok()) return true;
  *err = std::string(name) + " not well-formed: " + report;
  return false;
}

uint64_t Elapsed(uint64_t t0) { return NowNs() - t0; }

// -- point_read_zipf ----------------------------------------------------------

/// Read-only transactions (Begin, one Get, Commit) on Random::Skewed keys
/// over a tree that fits in the pool: the optimistic descent, pool hits, S
/// locks and Begin/Commit, with no log or miss path. Skewed(n, 0.99) is
/// n * u^100, so about 89% of reads go to key 0 and most of the rest to the
/// first leaf; Describe() reports the measured shares.
class PointReadZipf : public Workload {
 public:
  static constexpr uint64_t kKeys = 100000;

  int clients() const override { return 2; }
  OpClass primary() const override { return kRead; }
  bool read_only() const override { return true; }
  pitree::Options options() const override {
    pitree::Options o;
    o.buffer_pool_pages = 8192;
    return o;
  }

  bool Load(Database* db, std::string* err) override {
    db_ = db;
    PiTree* t = nullptr;
    if (!db->CreateIndex("t", &t).ok()) return Fail(err, "create index");
    tree_ = t;
    pitrees_ = {t};
    for (uint64_t i = 0; i < kKeys; i += kLoadBatch) {
      bool ok = Transact(db, &loader(), true, [&](Transaction* txn) {
        for (uint64_t k = i; k < std::min(kKeys, i + kLoadBatch); ++k) {
          std::string key = NumKey('k', k);
          Status s = t->Insert(txn, key, ValueFor(key, seed_, kValueBytes));
          if (!s.ok()) return s;
        }
        return Status::OK();
      });
      if (!ok) return Fail(err, "load");
      loader().user_bytes += (std::min(kKeys, i + kLoadBatch) - i) *
                             (NumKey('k', 0).size() + kValueBytes);
    }
    // Warm-up: read every key once, checking what was loaded.
    for (uint64_t i = 0; i < kKeys; i += kLoadBatch) {
      bool ok = Transact(db, &loader(), false, [&](Transaction* txn) {
        std::string v;
        for (uint64_t k = i; k < std::min(kKeys, i + kLoadBatch); ++k) {
          std::string key = NumKey('k', k);
          Status s = t->Get(txn, key, &v);
          if (!s.ok()) return s;
          if (v != ValueFor(key, seed_, kValueBytes)) {
            ++loader().value_mismatches;
          }
        }
        return Status::OK();
      });
      if (!ok) return Fail(err, "warm-up");
    }
    // The first leaf's high key, from a one-node walk of the leaf chain.
    std::string high;
    size_t examined = 0, scheduled = 0;
    if (!t->SweepForConsolidation(1, &high, &examined, &scheduled).ok()) {
      return Fail(err, "leaf walk");
    }
    first_leaf_keys_ = 0;
    while (first_leaf_keys_ < kKeys &&
           (high.empty() || NumKey('k', first_leaf_keys_) < high)) {
      ++first_leaf_keys_;
    }
    return true;
  }

  OpResult Op(int client, Random* rnd) override {
    OpResult r;
    r.cls = kRead;
    const uint64_t k = rnd->Skewed(kKeys, 0.99);
    ClientCounts& c = counts_[client];
    ++c.key_draws;
    c.top_key_draws += k == 0;
    c.first_leaf_draws += k < first_leaf_keys_;
    std::string key = NumKey('k', k);
    std::string v;
    uint64_t t0 = NowNs();
    r.ok = Transact(db_, &counts_[client], false, [&](Transaction* txn) {
      return PiGet(tree_, txn, key, &v);
    });
    r.latency_ns = Elapsed(t0);
    if (r.ok && v != ValueFor(key, seed_, kValueBytes)) {
      ++counts_[client].value_mismatches;
    }
    return r;
  }

  bool Check(std::string* err) override {
    if (Totals().value_mismatches != 0) return Fail(err, "value mismatch");
    return WellFormed(tree_, "t", err);
  }

  uint64_t live_user_bytes() const override {
    return kKeys * (NumKey('k', 0).size() + kValueBytes);
  }

  std::string Describe() const override {
    ClientCounts t = Totals();
    double n = t.key_draws;
    char buf[160];
    snprintf(buf, sizeof(buf),
             "key distribution: %.4f of %llu reads on the top key, %.4f on "
             "the first leaf (keys 0..%llu of %llu)",
             n ? t.top_key_draws / n : 0, static_cast<unsigned long long>(n),
             n ? t.first_leaf_draws / n : 0,
             static_cast<unsigned long long>(first_leaf_keys_ - 1),
             static_cast<unsigned long long>(kKeys));
    return buf;
  }

 private:
  static bool Fail(std::string* err, const char* what) {
    *err = std::string("point_read_zipf: ") + what;
    return false;
  }
  PiTree* tree_ = nullptr;
  uint64_t first_leaf_keys_ = 0;  // keys 0..first_leaf_keys_-1 share a leaf
};

// -- transfer -----------------------------------------------------------------

/// Banking transfers: read two accounts, update both, append a history row
/// under a monotonic key; commit-bound on the modeled fsync, with the
/// continuous checkpointer cycling by log volume.
class Transfer : public Workload {
 public:
  static constexpr uint64_t kAccounts = 100000;
  static constexpr int64_t kInitial = 1000;
  static constexpr size_t kHistoryValueBytes = 40;
  static constexpr uint64_t kWarmupTransfers = 2000;

  int clients() const override { return 4; }
  OpClass primary() const override { return kWrite; }
  pitree::Options options() const override {
    pitree::Options o;
    o.buffer_pool_pages = 8192;
    o.checkpoint_log_bytes = 16 << 20;
    o.wal_segment_bytes = 1 << 20;
    return o;
  }
  uint64_t sync_delay_us() const override { return 100; }

  bool Load(Database* db, std::string* err) override {
    db_ = db;
    if (!db->CreateIndex("accounts", &accounts_).ok() ||
        !db->CreateIndex("history", &history_).ok()) {
      return Fail(err, "create index");
    }
    pitrees_ = {accounts_, history_};
    for (uint64_t i = 0; i < kAccounts; i += kLoadBatch) {
      uint64_t end = std::min(kAccounts, i + kLoadBatch);
      bool ok = Transact(db, &loader(), true, [&](Transaction* txn) {
        for (uint64_t k = i; k < end; ++k) {
          Status s = accounts_->Insert(txn, NumKey('a', k), Balance(kInitial));
          if (!s.ok()) return s;
        }
        return Status::OK();
      });
      if (!ok) return Fail(err, "load");
      loader().user_bytes += (end - i) * (NumKey('a', 0).size() + kValueBytes);
    }
    Random rnd(seed_ * 7919 + 1);
    for (uint64_t i = 0; i < kWarmupTransfers; ++i) {
      if (!Move(&loader(), &rnd, 0, 1).ok) return Fail(err, "warm-up");
    }
    return true;
  }

  OpResult Op(int client, Random* rnd) override {
    return Move(&counts_[client], rnd, 0, 1);
  }

  bool Check(std::string* err) override {
    ClientCounts t = Totals();
    return CheckState(db_, accounts_, history_, t.commits, t.commit_calls,
                      nullptr, err);
  }

  bool CrashRestart(Instance* inst, uint64_t seed, CrashResult* out,
                    std::string* err) override;

  uint64_t live_user_bytes() const override {
    uint64_t rows = Totals().commits - kAccounts / kLoadBatch;
    return kAccounts * (NumKey('a', 0).size() + kValueBytes) +
           rows * (HistoryKey(0).size() + kHistoryValueBytes);
  }

 private:
  static bool Fail(std::string* err, const std::string& what) {
    *err = "transfer: " + what;
    return false;
  }
  static std::string Balance(int64_t b) {
    char buf[32];
    snprintf(buf, sizeof(buf), "%020" PRId64, b);
    std::string v(buf);
    v.resize(kValueBytes, '.');
    return v;
  }
  static std::string HistoryKey(uint64_t n) {
    char buf[24];
    snprintf(buf, sizeof(buf), "h%016" PRIu64, n);
    return buf;
  }

  /// One transfer between accounts congruent to `part` modulo `parts`.
  OpResult Move(ClientCounts* c, Random* rnd, uint64_t part, uint64_t parts) {
    OpResult r;
    r.cls = kWrite;
    uint64_t span = kAccounts / parts;
    uint64_t from = rnd->Uniform(span);
    uint64_t to = rnd->Uniform(span - 1);
    if (to >= from) ++to;
    from = from * parts + part;
    to = to * parts + part;
    int64_t amount = 1 + static_cast<int64_t>(rnd->Uniform(50));
    std::string fk = NumKey('a', from), tk = NumKey('a', to);
    uint64_t t0 = NowNs();
    r.ok = Transact(db_, c, true, [&](Transaction* txn) {
      std::string fv, tv;
      Status s = PiGet(accounts_, txn, fk, &fv);
      if (s.ok()) s = PiGet(accounts_, txn, tk, &tv);
      if (!s.ok()) return s;
      int64_t fb = std::strtoll(fv.c_str(), nullptr, 10);
      int64_t tb = std::strtoll(tv.c_str(), nullptr, 10);
      s = PiUpdate(accounts_, txn, fk, Balance(fb - amount));
      if (s.ok()) s = PiUpdate(accounts_, txn, tk, Balance(tb + amount));
      if (!s.ok()) return s;
      std::string hv = fk + ">" + tk + ":" + std::to_string(amount);
      hv.resize(kHistoryValueBytes, '.');
      return PiInsert(history_, txn, HistoryKey(next_history_.fetch_add(1)),
                      hv);
    });
    r.latency_ns = Elapsed(t0);
    if (r.ok) {
      c->user_bytes += 2 * (fk.size() + kValueBytes) +
                       HistoryKey(0).size() + kHistoryValueBytes;
    }
    return r;
  }

  /// Money is conserved, the history holds between `acked` and
  /// `attempted` rows (load transactions excluded), both trees are
  /// well-formed.
  static bool CheckState(Database* db, PiTree* accounts, PiTree* history,
                         uint64_t acked, uint64_t attempted, uint64_t* rows,
                         std::string* err) {
    int64_t total = 0;
    uint64_t n_accounts = 0, n_history = 0;
    Status s = ScanAll(db, accounts, [&](const NodeEntry& e) {
      total += std::strtoll(e.value.c_str(), nullptr, 10);
      ++n_accounts;
    });
    if (s.ok()) {
      s = ScanAll(db, history, [&](const NodeEntry&) { ++n_history; });
    }
    if (!s.ok()) return Fail(err, "check scan: " + s.ToString());
    if (n_accounts != kAccounts) return Fail(err, "accounts lost");
    if (total != static_cast<int64_t>(kAccounts) * kInitial) {
      return Fail(err, "money not conserved: " + std::to_string(total));
    }
    uint64_t load_txns = kAccounts / kLoadBatch;
    if (n_history + load_txns < acked || n_history + load_txns > attempted) {
      return Fail(err, "history rows " + std::to_string(n_history) +
                           " outside [" + std::to_string(acked - load_txns) +
                           ", " + std::to_string(attempted - load_txns) + "]");
    }
    if (rows != nullptr) *rows = n_history;
    return WellFormed(accounts, "accounts", err) &&
           WellFormed(history, "history", err);
  }

  PiTree* accounts_ = nullptr;
  PiTree* history_ = nullptr;
  std::atomic<uint64_t> next_history_{0};
};

bool Transfer::CrashRestart(Instance* inst, uint64_t seed, CrashResult* out,
                            std::string* err) {
  // A burst of transfers, power cut while they run. Each client keeps to its
  // own accounts (congruent to its index), so no client can be left waiting
  // on a lock held by a transaction the power cut left unfinished. One more
  // thread takes checkpoints back to back (each truncates the WAL below its
  // floor), so the cut falls at a varying point of a checkpoint cycle.
  const int n = clients();
  std::vector<ClientCounts> burst(n);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      Random rnd(seed * 104729 + 7 * c + 3);
      while (!stop.load(std::memory_order_acquire)) {
        if (!Move(&burst[c], &rnd, c, n).ok) break;
      }
    });
  }
  std::atomic<uint64_t> checkpoints{0};
  threads.emplace_back([&] {
    // Fails once the power is cut.
    while (!stop.load(std::memory_order_acquire) &&
           inst->db->Checkpoint().ok()) {
      checkpoints.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  inst->env->Crash();
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  out->burst_checkpoints = checkpoints.load();

  ClientCounts before = Totals();
  out->acked = before.commits;
  out->attempted = before.commit_calls;
  for (const auto& b : burst) {
    out->acked += b.commits;
    out->attempted += b.commit_calls;
  }
  // The crashed process is gone: nothing runs its destructors, and its Env
  // refuses every call, so the abandoned objects are leaked on purpose.
  (void)inst->db.release();
  (void)inst->env.release();
  accounts_ = history_ = nullptr;
  pitrees_.clear();

  inst->env = std::make_unique<TracedEnv>(inst->sim.get());
  uint64_t t0 = NowNs();
  Status s = Database::Open(options(), inst->env.get(), "db", &inst->db,
                            &out->stats);
  out->open_ms = Elapsed(t0) / 1e6;
  out->ran = true;
  if (!s.ok()) return Fail(err, "reopen: " + s.ToString());
  db_ = inst->db.get();
  if (!db_->GetIndex("accounts", &accounts_).ok() ||
      !db_->GetIndex("history", &history_).ok()) {
    return Fail(err, "indexes lost");
  }
  pitrees_ = {accounts_, history_};
  return CheckState(db_, accounts_, history_, out->acked, out->attempted,
                    &out->recovered_rows, err);
}

// -- scan_cold ----------------------------------------------------------------

/// 50-row scans from uniform keys (95%) and random inserts (5%) over data
/// about ten times the pool: misses, eviction, dirty write-back and I/O
/// waits, on latched leaf-chain scans.
class ScanCold : public Workload {
 public:
  static constexpr uint64_t kRecords = 300000;
  static constexpr size_t kScanRows = 50;
  static constexpr uint64_t kWarmupOps = 1000;

  int clients() const override { return 4; }
  OpClass primary() const override { return kScan; }
  pitree::Options options() const override {
    pitree::Options o;
    o.buffer_pool_pages = 512;
    return o;
  }
  uint64_t sync_delay_us() const override { return 100; }
  uint64_t read_delay_us() const override { return 20; }

  bool Load(Database* db, std::string* err) override {
    db_ = db;
    if (!db->CreateIndex("t", &tree_).ok()) return Fail(err, "create index");
    pitrees_ = {tree_};
    inserted_.assign(clients() + 1, {});
    for (uint64_t i = 0; i < kRecords; i += kLoadBatch) {
      uint64_t end = std::min(kRecords, i + kLoadBatch);
      bool ok = Transact(db, &loader(), true, [&](Transaction* txn) {
        for (uint64_t k = i; k < end; ++k) {
          std::string key = NumKey('s', k);
          Status s = tree_->Insert(txn, key, ValueFor(key, seed_, kValueBytes));
          if (!s.ok()) return s;
        }
        return Status::OK();
      });
      if (!ok) return Fail(err, "load");
      loader().user_bytes += (end - i) * (NumKey('s', 0).size() + kValueBytes);
    }
    Random rnd(seed_ * 6151 + 5);
    for (uint64_t i = 0; i < kWarmupOps; ++i) {
      if (!Mixed(clients(), &rnd).ok) return Fail(err, "warm-up");
    }
    return true;
  }

  OpResult Op(int client, Random* rnd) override { return Mixed(client, rnd); }

  bool Check(std::string* err) override {
    if (Totals().value_mismatches != 0) return Fail(err, "value mismatch");
    ClientCounts scratch;
    for (const auto& keys : inserted_) {
      for (const auto& key : keys) {
        std::string v;
        bool ok = Transact(db_, &scratch, false, [&](Transaction* txn) {
          return tree_->Get(txn, key, &v);
        });
        if (!ok || v != ValueFor(key, seed_, kValueBytes)) {
          return Fail(err, "inserted key " + key + " lost");
        }
      }
    }
    return WellFormed(tree_, "t", err);
  }

  uint64_t live_user_bytes() const override {
    uint64_t bytes = kRecords * (NumKey('s', 0).size() + kValueBytes);
    for (const auto& keys : inserted_) {
      for (const auto& key : keys) bytes += key.size() + kValueBytes;
    }
    return bytes;
  }

 private:
  static bool Fail(std::string* err, const std::string& what) {
    *err = "scan_cold: " + what;
    return false;
  }

  OpResult Mixed(int client, Random* rnd) {
    ClientCounts* c = &counts_[client];
    OpResult r;
    uint64_t base = rnd->Uniform(kRecords);
    if (rnd->Uniform(100) < 5) {
      r.cls = kWrite;
      // A fresh key between two loaded ones, unique to this client.
      char buf[48];
      snprintf(buf, sizeof(buf), "%s.%d.%08zu", NumKey('s', base).c_str(),
               client, inserted_[client].size());
      std::string key = buf;
      std::string value = ValueFor(key, seed_, kValueBytes);
      uint64_t t0 = NowNs();
      r.ok = Transact(db_, c, true, [&](Transaction* txn) {
        return PiInsert(tree_, txn, key, value);
      });
      r.latency_ns = Elapsed(t0);
      if (r.ok) {
        c->user_bytes += key.size() + value.size();
        inserted_[client].push_back(std::move(key));
      }
      return r;
    }
    r.cls = kScan;
    std::string start = NumKey('s', base);
    std::vector<NodeEntry> rows;
    uint64_t t0 = NowNs();
    r.ok = Transact(db_, c, false, [&](Transaction* txn) {
      rows.clear();
      return PiScan(tree_, txn, start, kScanRows, &rows);
    });
    r.latency_ns = Elapsed(t0);
    if (!r.ok) return r;
    ++c->scans;
    bool good = rows.size() == kScanRows || base + kScanRows > kRecords;
    for (size_t i = 0; good && i < rows.size(); ++i) {
      good = rows[i].key >= start &&
             (i == 0 || rows[i - 1].key < rows[i].key) &&
             rows[i].value == ValueFor(rows[i].key, seed_, kValueBytes);
    }
    if (!good) ++c->value_mismatches;
    return r;
  }

  PiTree* tree_ = nullptr;
  std::vector<std::vector<std::string>> inserted_;  // per client (+ loader)
};

// -- mvcc_snapshot ------------------------------------------------------------

/// One writer moving money between TSB-tree accounts, one reader taking
/// snapshot scans of all of them: time splits, history chains, the
/// timestamp oracle and lock-free snapshot reads.
class MvccSnapshot : public Workload {
 public:
  static constexpr uint64_t kAccounts = 2000;
  static constexpr int64_t kInitial = 1000;
  static constexpr uint64_t kWarmupTransfers = 20000;

  int clients() const override { return 2; }
  OpClass primary() const override { return kWrite; }
  pitree::Options options() const override {
    // The log grows by about 1.4 KiB per transfer; checkpoints let it be
    // truncated so a run's in-memory SimEnv stays a few hundred MiB.
    pitree::Options o;
    o.checkpoint_log_bytes = 32 << 20;
    o.wal_segment_bytes = 1 << 20;
    return o;
  }

  bool Load(Database* db, std::string* err) override {
    db_ = db;
    if (!db->CreateTsbIndex("m", &tsb_).ok()) return Fail(err, "create index");
    balances_.assign(kAccounts, kInitial);
    keys_.clear();
    for (uint64_t k = 0; k < kAccounts; ++k) keys_.push_back(NumKey('m', k));
    for (uint64_t i = 0; i < kAccounts; i += 100) {
      bool ok = Transact(db, &loader(), true, [&](Transaction* txn) {
        for (uint64_t k = i; k < i + 100; ++k) {
          Status s = tsb_->Put(txn, keys_[k], Balance(kInitial));
          if (!s.ok()) return s;
        }
        return Status::OK();
      });
      if (!ok) return Fail(err, "load");
      loader().user_bytes += 100 * (keys_[0].size() + kValueBytes);
    }
    Random rnd(seed_ * 3571 + 9);
    for (uint64_t i = 0; i < kWarmupTransfers; ++i) {
      if (!Write(&loader(), &rnd).ok) return Fail(err, "warm-up");
    }
    return true;
  }

  OpResult Op(int client, Random* rnd) override {
    return client == 0 ? Write(&counts_[0], rnd) : SnapshotScan(&counts_[1]);
  }

  bool Check(std::string* err) override {
    if (Totals().value_mismatches != 0) return Fail(err, "wrong snapshot");
    ClientCounts scratch;
    if (!SnapshotScan(&scratch).ok || scratch.value_mismatches != 0) {
      return Fail(err, "final snapshot wrong");
    }
    for (uint64_t k = 0; k < kAccounts; ++k) {
      std::string v;
      bool ok = Transact(db_, &scratch, false, [&](Transaction* txn) {
        return tsb_->Get(txn, keys_[k], &v);
      });
      if (!ok || v != Balance(balances_[k])) return Fail(err, "balance lost");
    }
    std::string report;
    if (!tsb_->CheckWellFormed(&report).ok()) {
      return Fail(err, "not well-formed: " + report);
    }
    return true;
  }

  uint64_t live_user_bytes() const override { return user_bytes_written(); }

 private:
  static bool Fail(std::string* err, const std::string& what) {
    *err = "mvcc_snapshot: " + what;
    return false;
  }
  static std::string Balance(int64_t b) {
    char buf[32];
    snprintf(buf, sizeof(buf), "%020" PRId64, b);
    std::string v(buf);
    v.resize(kValueBytes, '.');
    return v;
  }

  /// Get (checked against the writer's own record), two Puts, Commit. Only
  /// one thread writes at a time, so `balances_` needs no lock.
  OpResult Write(ClientCounts* c, Random* rnd) {
    OpResult r;
    r.cls = kWrite;
    uint64_t from = rnd->Uniform(kAccounts);
    uint64_t to = rnd->Uniform(kAccounts - 1);
    if (to >= from) ++to;
    int64_t amount = 1 + static_cast<int64_t>(rnd->Uniform(50));
    const std::string& fk = keys_[from];
    const std::string& tk = keys_[to];
    bool mismatch = false;
    uint64_t t0 = NowNs();
    r.ok = Transact(db_, c, true, [&](Transaction* txn) {
      std::string fv;
      Status s = TsbGet(tsb_, txn, fk, &fv);
      if (!s.ok()) return s;
      mismatch = fv != Balance(balances_[from]);
      s = TsbPut(tsb_, txn, fk, Balance(balances_[from] - amount));
      if (s.ok()) s = TsbPut(tsb_, txn, tk, Balance(balances_[to] + amount));
      return s;
    });
    r.latency_ns = Elapsed(t0);
    if (r.ok) {
      balances_[from] -= amount;
      balances_[to] += amount;
      c->user_bytes += 2 * (fk.size() + kValueBytes);
    }
    if (mismatch) ++c->value_mismatches;
    return r;
  }

  /// Every account, once, in key order, with the initial total.
  OpResult SnapshotScan(ClientCounts* c) {
    OpResult r;
    r.cls = kScan;
    std::vector<TsbScanEntry> rows;
    rows.reserve(kAccounts + 1);
    uint64_t t0 = NowNs();
    Status s;
    {
      std::unique_ptr<pitree::SnapshotTxn> snap;
      {
        ScopedSpan span(kMvccBegin);
        snap = db_->BeginSnapshot();
      }
      ScopedSpan span(kMvccScan);
      s = snap->Scan(tsb_, "", "", kAccounts + 1, &rows);
    }
    r.latency_ns = Elapsed(t0);
    r.ok = s.ok();
    if (!r.ok) return r;
    ++c->scans;
    int64_t total = 0;
    bool good = rows.size() == kAccounts;
    for (size_t i = 0; good && i < rows.size(); ++i) {
      good = rows[i].key == keys_[i];
      total += std::strtoll(rows[i].value.c_str(), nullptr, 10);
    }
    if (!good || total != static_cast<int64_t>(kAccounts) * kInitial) {
      ++c->value_mismatches;
    }
    return r;
  }

  std::vector<int64_t> balances_;
  std::vector<std::string> keys_;  // account k's key, formatted once
};

}  // namespace

const char* OpClassName(OpClass c) {
  static const char* const kNames[] = {"read", "write", "scan"};
  return kNames[c];
}

void Workload::Init(uint64_t seed) {
  seed_ = seed;
  counts_.assign(clients() + 1, ClientCounts());
}

ClientCounts Workload::Totals() const {
  ClientCounts t;
  for (const auto& c : counts_) {
    t.commits += c.commits;
    t.commit_calls += c.commit_calls;
    t.retries += c.retries;
    t.scans += c.scans;
    t.user_bytes += c.user_bytes;
    t.value_mismatches += c.value_mismatches;
    t.key_draws += c.key_draws;
    t.top_key_draws += c.top_key_draws;
    t.first_leaf_draws += c.first_leaf_draws;
  }
  return t;
}

uint64_t Workload::user_bytes_written() const { return Totals().user_bytes; }

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "point_read_zipf") return std::make_unique<PointReadZipf>();
  if (name == "transfer") return std::make_unique<Transfer>();
  if (name == "scan_cold") return std::make_unique<ScanCold>();
  if (name == "mvcc_snapshot") return std::make_unique<MvccSnapshot>();
  return nullptr;
}

}  // namespace perfbench

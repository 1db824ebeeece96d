// End-to-end benchmark: one closed-loop workload over the public
// Database API on SimEnv, checked for correct answers.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates untraced and traced intervals and reports the per-layer
// metrics, including the tracing overhead. The last line printed is the
// result object; lines before it describe the run. See README.md.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "report.h"
#include "trace.h"
#include "traced_env.h"
#include "workloads.h"

namespace perfbench {

int RunSelfTest();

namespace {

using pitree::Database;
using pitree::Status;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--self-test") {
      a->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0) || a->seconds > 600) return false;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else {
      return false;
    }
  }
  return a->self_test || have_workload;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Engine counters read at the edges of the measured window.
struct Counters {
  pitree::PoolShardStats pool;
  pitree::WalStats wal;
  uint64_t pi_side = 0, pi_splits = 0, pi_posts = 0, pi_restarts = 0;
  uint64_t pi_opt_gets = 0, pi_opt_fallbacks = 0;
  uint64_t tsb_key_splits = 0, tsb_time_splits = 0, tsb_history_hops = 0;
  uint64_t tsb_opt_gets = 0, tsb_opt_fallbacks = 0;
  uint64_t lock_grants = 0, deadlocks = 0, checkpoints = 0, sim_syncs = 0;
  EnvCounters env;
  ClientCounts clients;
};

Counters Snapshot(const Instance& inst, const Workload& wl) {
  Counters c;
  c.pool = inst.db->pool_stats().total;
  c.wal = inst.db->wal_stats();
  for (pitree::PiTree* t : wl.pitrees()) {
    const pitree::PiTreeStats& s = t->stats();
    c.pi_side += s.side_traversals.load();
    c.pi_splits += s.splits.load();
    c.pi_posts += s.posts_performed.load();
    c.pi_restarts += s.restarts.load();
    c.pi_opt_gets += s.optimistic_gets.load();
    c.pi_opt_fallbacks += s.optimistic_fallbacks.load();
  }
  if (pitree::TsbTree* t = wl.tsb()) {
    const pitree::TsbStats& s = t->stats();
    c.tsb_key_splits = s.key_splits.load();
    c.tsb_time_splits = s.time_splits.load();
    c.tsb_history_hops = s.history_hops.load();
    c.tsb_opt_gets = s.optimistic_gets.load();
    c.tsb_opt_fallbacks = s.optimistic_fallbacks.load();
  }
  c.lock_grants = inst.db->context()->locks->grant_count();
  c.deadlocks = inst.db->context()->locks->deadlock_count();
  c.checkpoints = inst.db->checkpoints_taken();
  c.sim_syncs = inst.sim->sync_count();
  c.env = inst.env->counters();
  c.clients = wl.Totals();
  return c;
}

/// Opens a fresh database for `name`, loads it, warms it up, then flushes
/// and checkpoints so the timed window starts with a clean pool; returns
/// the seconds all of that took, or a negative value on failure.
double Setup(const std::string& name, uint64_t seed, Instance* inst,
             std::unique_ptr<Workload>* wl, std::string* err) {
  *wl = MakeWorkload(name);
  (*wl)->Init(seed);
  uint64_t t0 = NowNs();
  inst->sim = std::make_unique<pitree::SimEnv>();
  inst->sim->set_sync_delay_us((*wl)->sync_delay_us());
  inst->sim->set_read_delay_us((*wl)->read_delay_us());
  inst->env = std::make_unique<TracedEnv>(inst->sim.get());
  Status s = Database::Open((*wl)->options(), inst->env.get(), "db",
                            &inst->db);
  if (!s.ok()) {
    *err = "open: " + s.ToString();
    return -1;
  }
  if (!(*wl)->Load(inst->db.get(), err)) return -1;
  s = inst->db->FlushAll();
  if (s.ok()) s = inst->db->Checkpoint();
  if (!s.ok()) {
    *err = "flush and checkpoint: " + s.ToString();
    return -1;
  }
  return (NowNs() - t0) / 1e9;
}

/// Keeps client `c` of `clients` on the c-th CPU this process may use, when
/// at most half of those CPUs are taken by clients. Left to itself the
/// scheduler sometimes runs two busy clients on one CPU and sometimes on
/// two, and this engine's shared-cacheline contention makes the two
/// placements differ in speed by up to 1.5x. More clients run unpinned, so
/// the engine's own threads (checkpointer, group-commit leader) always find
/// a free CPU; `transfer` with its four clients pinned ran at half speed.
void PinClient(int c, int clients) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  if (2 * clients > CPU_COUNT(&allowed)) return;
  int want = c;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || want-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    return;
  }
}

/// One client's record of the window, per interval.
struct ClientLog {
  std::vector<std::array<std::vector<float>, kNumOpClasses>> lat_us;
  std::vector<uint64_t> done;
  std::vector<uint64_t> failed;
};

struct Window {
  std::vector<bool> traced;   // per interval
  std::vector<double> secs;   // per interval
  std::vector<ClientLog> logs;
};

/// Runs the closed loop for `seconds`, split into `traced.size()` equal
/// intervals; tracing is on during the intervals marked traced.
void RunWindow(Workload* wl, uint64_t seed, double seconds,
               const std::vector<bool>& traced, Window* w) {
  const int n = wl->clients();
  const int intervals = static_cast<int>(traced.size());
  w->traced = traced;
  w->secs.assign(intervals, 0);
  w->logs.assign(n, ClientLog());
  for (auto& log : w->logs) {
    log.lat_us.resize(intervals);
    log.done.assign(intervals, 0);
    log.failed.assign(intervals, 0);
  }
  std::atomic<int> interval{-1};
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      MarkClientThread();
      PinClient(c, n);
      pitree::Random rnd(seed * 1000003 + 17 * c + 1);
      ClientLog& log = w->logs[c];
      int iv;
      while ((iv = interval.load(std::memory_order_acquire)) < 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      while (iv < intervals) {
        OpResult r;
        {
          ScopedSpan op(kOp);
          r = wl->Op(c, &rnd);
        }
        if (r.ok) {
          ++log.done[iv];
          log.lat_us[iv][r.cls].push_back(
              static_cast<float>(r.latency_ns / 1e3));
        } else {
          ++log.failed[iv];
        }
        iv = interval.load(std::memory_order_acquire);
      }
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto per = std::chrono::duration<double>(seconds / intervals);
  for (int i = 0; i < intervals; ++i) {
    Tracer::Get().SetEnabled(traced[i]);
    uint64_t start = NowNs();
    interval.store(i, std::memory_order_release);
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 per * (i + 1)));
    w->secs[i] = (NowNs() - start) / 1e9;
  }
  interval.store(intervals, std::memory_order_release);
  Tracer::Get().SetEnabled(false);
  for (auto& t : threads) t.join();
}

struct Tally {
  uint64_t done = 0, failed = 0;
};

Tally Totals(const Window& w) {
  Tally t;
  for (const auto& log : w.logs) {
    for (size_t i = 0; i < log.done.size(); ++i) {
      t.done += log.done[i];
      t.failed += log.failed[i];
    }
  }
  return t;
}

/// Latencies of class `cls` in interval `i`, over all clients.
std::vector<double> Latencies(const Window& w, int i, int cls) {
  std::vector<double> v;
  for (const auto& log : w.logs) {
    v.insert(v.end(), log.lat_us[i][cls].begin(), log.lat_us[i][cls].end());
  }
  return v;
}

double IntervalRate(const Window& w, int i) {
  uint64_t done = 0;
  for (const auto& log : w.logs) done += log.done[i];
  return Ratio(done, w.secs[i]);
}

/// The whole-window table of every end-to-end figure, per operation class,
/// each latency quantile with its sample count. Classes the workload does
/// not run print n=0.
void PrintEndToEndTable(const Window& w, bool trace, double setup_s,
                        double write_amp, double space_amp) {
  double secs = 0;
  for (double s : w.secs) secs += s;
  printf("# end-to-end, whole window (%.3f s, %s):\n", secs,
         trace ? "traced half the time" : "tracing off");
  for (int k = 0; k < kNumOpClasses; ++k) {
    std::vector<double> v;
    for (size_t i = 0; i < w.secs.size(); ++i) {
      std::vector<double> part = Latencies(w, static_cast<int>(i), k);
      v.insert(v.end(), part.begin(), part.end());
    }
    const char* name = OpClassName(static_cast<OpClass>(k));
    size_t n = v.size();
    double p50 = Percentile(&v, 0.50), p99 = Percentile(&v, 0.99);
    printf("#   %s_ops_s %.1f 1/s | %s_p50_us %.2f us | %s_p99_us %.2f us "
           "| n=%zu\n",
           name, n / secs, name, p50, name, p99, n);
  }
  const Tally t = Totals(w);
  printf("#   failed_frac %.6g ratio (%llu of %llu)\n",
         Ratio(t.failed, t.done + t.failed),
         static_cast<unsigned long long>(t.failed),
         static_cast<unsigned long long>(t.done + t.failed));
  printf("#   setup_s %.4f s | write_amp %.4f ratio | space_amp %.4f ratio\n",
         setup_s, write_amp, space_amp);
}

void PrintOptions(const Workload& wl) {
  const pitree::Options o = wl.options(), d;
  printf("# options:");
  if (o.buffer_pool_pages != d.buffer_pool_pages) {
    printf(" buffer_pool_pages=%zu", o.buffer_pool_pages);
  }
  if (o.checkpoint_log_bytes != d.checkpoint_log_bytes) {
    printf(" checkpoint_log_bytes=%llu",
           static_cast<unsigned long long>(o.checkpoint_log_bytes));
  }
  if (o.wal_segment_bytes != d.wal_segment_bytes) {
    printf(" wal_segment_bytes=%llu",
           static_cast<unsigned long long>(o.wal_segment_bytes));
  }
  printf(" (others default); device: sync_delay_us=%llu read_delay_us=%llu\n",
         static_cast<unsigned long long>(wl.sync_delay_us()),
         static_cast<unsigned long long>(wl.read_delay_us()));
}

/// The gated metrics: throughput counts completed operations of every
/// class, latency is the workload's primary class. Each is the median of
/// its values over the ten intervals of the window, so a few seconds in
/// which the box stalls do not move it.
std::vector<Metric> EndToEnd(const Window& w, OpClass primary,
                             const std::vector<double>& setups,
                             double write_amp, double space_amp) {
  std::vector<double> rates, p50s, p99s;
  printf("# intervals (ops_s; %s p50_us, p99_us, n):", OpClassName(primary));
  for (size_t i = 0; i < w.secs.size(); ++i) {
    std::vector<double> v = Latencies(w, static_cast<int>(i), primary);
    rates.push_back(IntervalRate(w, static_cast<int>(i)));
    p50s.push_back(Percentile(&v, 0.50));
    p99s.push_back(Percentile(&v, 0.99));
    printf(" [%.0f %.1f %.1f %zu]", rates.back(), p50s.back(), p99s.back(),
           v.size());
  }
  printf("\n");
  return {
      {"ops_s", Median(rates), "1/s"},
      {"p50_us", Median(p50s), "us"},
      {"p99_us", Median(p99s), "us"},
      {"setup_s", Median(setups), "s"},
      {"write_amp", write_amp, "ratio"},
      {"space_amp", space_amp, "ratio"},
  };
}

std::vector<Metric> PerLayer(const Window& w, const Counters& a,
                             const Counters& b, TraceSummary* t,
                             const CrashResult& crash, double wal_segments) {
  const Tally tally = Totals(w);
  const double ops = tally.done + tally.failed;
  const double kops = ops / 1e3;
  const double commits = b.clients.commits - a.clients.commits;
  double traced_secs = 0;
  std::vector<double> traced_rates, plain_rates;
  for (size_t i = 0; i < w.secs.size(); ++i) {
    (w.traced[i] ? traced_rates : plain_rates)
        .push_back(IntervalRate(w, static_cast<int>(i)));
    if (w.traced[i]) traced_secs += w.secs[i];
  }
  auto dur = [&](SpanKind k, double q) {
    return Percentile(&t->spans[k].dur_us, q);
  };
  auto self = [&](SpanKind k, double q) {
    return Percentile(&t->spans[k].self_us, q);
  };
  const auto& pa = a.pool;
  const auto& pb = b.pool;
  // Optimistic copies are page accesses the pool served too.
  const double hits = (pb.hits - pa.hits) + (pb.opt_hits - pa.opt_hits);
  const double misses = pb.misses - pa.misses;
  const double pi_gets = b.pi_opt_gets - a.pi_opt_gets;
  const double pi_fall = b.pi_opt_fallbacks - a.pi_opt_fallbacks;
  const double tsb_gets = b.tsb_opt_gets - a.tsb_opt_gets;
  const double tsb_fall = b.tsb_opt_fallbacks - a.tsb_opt_fallbacks;
  const double opt_hits = pb.opt_hits - pa.opt_hits;
  const double opt_fall = pb.opt_fallbacks - pa.opt_fallbacks;
  const double splits = b.pi_splits - a.pi_splits;
  return {
      {"txn.begin_us.p50", dur(kTxnBegin, 0.5), "us"},
      {"txn.commit_us.p50", dur(kTxnCommit, 0.5), "us"},
      {"txn.commit_us.p99", dur(kTxnCommit, 0.99), "us"},
      {"txn.commit_self_us.p50", self(kTxnCommit, 0.5), "us"},
      {"txn.lock_grants_per_op",
       Ratio(b.lock_grants - a.lock_grants, ops), "count/op"},
      {"txn.deadlocks_per_kop", Ratio(b.deadlocks - a.deadlocks, kops),
       "count/kop"},
      {"txn.retries_per_kop",
       Ratio(b.clients.retries - a.clients.retries, kops), "count/kop"},
      {"pitree.get_us.p50", dur(kPiGet, 0.5), "us"},
      {"pitree.get_us.p99", dur(kPiGet, 0.99), "us"},
      {"pitree.update_us.p50", dur(kPiUpdate, 0.5), "us"},
      {"pitree.update_us.p99", dur(kPiUpdate, 0.99), "us"},
      {"pitree.insert_us.p50", dur(kPiInsert, 0.5), "us"},
      {"pitree.insert_us.p99", dur(kPiInsert, 0.99), "us"},
      {"pitree.scan_us.p50", dur(kPiScan, 0.5), "us"},
      {"pitree.scan_us.p99", dur(kPiScan, 0.99), "us"},
      {"pitree.optimistic_hit_ratio", Ratio(pi_gets, pi_gets + pi_fall),
       "ratio"},
      {"pitree.restarts_per_kop", Ratio(b.pi_restarts - a.pi_restarts, kops),
       "count/kop"},
      {"pitree.side_traversals_per_kop", Ratio(b.pi_side - a.pi_side, kops),
       "count/kop"},
      {"pitree.splits_per_kop", Ratio(splits, kops), "count/kop"},
      {"pitree.posts_per_split", Ratio(b.pi_posts - a.pi_posts, splits),
       "ratio"},
      {"tsb.put_us.p50", dur(kTsbPut, 0.5), "us"},
      {"tsb.put_us.p99", dur(kTsbPut, 0.99), "us"},
      {"tsb.get_us.p50", dur(kTsbGet, 0.5), "us"},
      {"mvcc.scan_us.p50", dur(kMvccScan, 0.5), "us"},
      {"mvcc.scan_us.p99", dur(kMvccScan, 0.99), "us"},
      {"tsb.history_hops_per_scan",
       Ratio(b.tsb_history_hops - a.tsb_history_hops,
             b.clients.scans - a.clients.scans),
       "count/scan"},
      {"tsb.time_splits_per_kop",
       Ratio(b.tsb_time_splits - a.tsb_time_splits, kops), "count/kop"},
      {"tsb.key_splits_per_kop",
       Ratio(b.tsb_key_splits - a.tsb_key_splits, kops), "count/kop"},
      {"tsb.optimistic_hit_ratio", Ratio(tsb_gets, tsb_gets + tsb_fall),
       "ratio"},
      {"pool.hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"pool.misses_per_op", Ratio(misses, ops), "count/op"},
      {"pool.evictions_per_op", Ratio(pb.evictions - pa.evictions, ops),
       "count/op"},
      {"pool.flushes_per_op", Ratio(pb.flushes - pa.flushes, ops),
       "count/op"},
      {"pool.io_waits_per_op", Ratio(pb.io_waits - pa.io_waits, ops),
       "count/op"},
      {"pool.mutex_acquires_per_op",
       Ratio(pb.mutex_acquires - pa.mutex_acquires, ops), "count/op"},
      {"pool.opt_fallback_ratio", Ratio(opt_fall, opt_hits + opt_fall),
       "ratio"},
      {"wal.appends_per_commit", Ratio(b.wal.appends - a.wal.appends, commits),
       "count/commit"},
      {"wal.bytes_per_commit",
       Ratio(b.wal.appended_bytes - a.wal.appended_bytes, commits),
       "B/commit"},
      {"wal.commits_per_batch", Ratio(commits, b.wal.batches - a.wal.batches),
       "count/batch"},
      {"wal.live_segments", wal_segments, "count"},
      {"wal.truncated_segments",
       static_cast<double>(b.wal.truncated_segments -
                           a.wal.truncated_segments),
       "count"},
      {"checkpoint.count", static_cast<double>(b.checkpoints - a.checkpoints),
       "count"},
      {"recovery.open_ms", crash.open_ms, "ms"},
      {"recovery.records_redone",
       static_cast<double>(crash.stats.records_redone), "count"},
      {"env.reads_per_op", Ratio(b.env.reads - a.env.reads, ops), "count/op"},
      {"env.read_us.p50", dur(kEnvRead, 0.5), "us"},
      {"env.syncs_per_commit", Ratio(b.sim_syncs - a.sim_syncs, commits),
       "count/commit"},
      {"env.sync_us.p50", dur(kEnvSync, 0.5), "us"},
      {"env.bytes_written_per_op",
       Ratio(b.env.bytes_written - a.env.bytes_written, ops), "B/op"},
      {"env.background_us_per_s", Ratio(t->background_ns / 1e3, traced_secs),
       "us/s"},
      {"env.files_created",
       static_cast<double>(b.env.files_created - a.env.files_created),
       "count"},
      {"env.files_deleted",
       static_cast<double>(b.env.files_deleted - a.env.files_deleted),
       "count"},
      {"trace.overhead_frac",
       1 - Ratio(Median(traced_rates), Median(plain_rates)), "ratio"},
  };
}

/// Per-span lines of the traced run: count, duration and self quantiles.
void PrintSpans(TraceSummary* t) {
  for (int k = 0; k < kNumSpanKinds; ++k) {
    SpanSamples& s = t->spans[k];
    if (s.dur_us.empty()) continue;
    size_t n = s.dur_us.size();
    double d50 = Percentile(&s.dur_us, 0.5), d99 = Percentile(&s.dur_us, 0.99);
    double s50 = Percentile(&s.self_us, 0.5);
    double s99 = Percentile(&s.self_us, 0.99);
    printf("# span %-16s n=%-9zu dur_p50_us=%-9.2f dur_p99_us=%-9.2f "
           "self_p50_us=%-9.2f self_p99_us=%.2f\n",
           SpanName(static_cast<SpanKind>(k)), n, d50, d99, s50, s99);
  }
  printf("# trace: ops=%zu self_sum_error=%.3g nesting_errors=%llu "
         "background_ns=%llu\n",
         t->spans[kOp].dur_us.size(), SelfSumError(*t),
         static_cast<unsigned long long>(t->nesting_errors),
         static_cast<unsigned long long>(t->background_ns));
}

int Run(const Args& args) {
  std::unique_ptr<Workload> probe = MakeWorkload(args.workload);
  if (probe == nullptr) {
    fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d clients=%d\n",
         args.workload.c_str(), static_cast<unsigned long long>(args.seed),
         args.seconds, args.trace ? 1 : 0, probe->clients());
  PrintOptions(*probe);
  printf("# %s\n", CalibrationLine(Calibrate()).c_str());

  // Set-up (open, load, warm-up) is timed on fresh databases; the traced
  // run reports no set-up time and sets up once.
  const int reps = args.trace ? 1 : 3;
  std::vector<double> setups;
  Instance inst;
  std::unique_ptr<Workload> wl;
  for (int r = 0; r < reps; ++r) {
    wl.reset();
    inst.db.reset();
    inst.env.reset();
    inst.sim.reset();
    std::string err;
    double secs = Setup(args.workload, args.seed, &inst, &wl, &err);
    if (secs < 0) {
      fprintf(stderr, "set-up failed: %s\n", err.c_str());
      return 1;
    }
    setups.push_back(secs);
  }
  printf("# setup_s:");
  for (double s : setups) printf(" %.4f", s);
  printf("\n");
  fflush(stdout);

  std::vector<bool> traced;
  if (args.trace) {
    for (int i = 0; i < 10; ++i) traced.push_back(i % 2 == 1);
  } else {
    traced.assign(10, false);
  }
  Tracer::Get().Reset();
  const Counters before = Snapshot(inst, *wl);
  Window w;
  RunWindow(wl.get(), args.seed, args.seconds, traced, &w);
  const Counters after = Snapshot(inst, *wl);
  if (!wl->Describe().empty()) printf("# %s\n", wl->Describe().c_str());
  // Quiet the last engine thread before reading the trace and checking.
  inst.db->StopCheckpointer();
  TraceSummary summary = Tracer::Get().Collect();

  const Tally tally = Totals(w);
  const double wal_segments = static_cast<double>(after.wal.segments);
  // Write and space amplification at rest: flush and checkpoint first, so
  // neither depends on where in its checkpoint cycle the window ended. Set-up
  // ended the same way, so the window's bytes are exactly the window's work.
  std::vector<std::string> problems;
  if (!inst.db->FlushAll().ok() || !inst.db->Checkpoint().ok()) {
    problems.push_back("final flush and checkpoint failed");
  }
  const EnvCounters quiet = inst.env->counters();
  const double space_amp =
      Ratio(inst.env->LiveFileBytes(), wl->live_user_bytes());
  const double window_env = quiet.bytes_written - before.env.bytes_written;
  const double window_user =
      wl->user_bytes_written() - before.clients.user_bytes;
  const double open_env = quiet.bytes_written;
  const double open_user = wl->user_bytes_written();
  // A read-only workload writes nothing in its window; its write_amp is
  // taken from open, over the load.
  const double write_amp = wl->read_only() ? Ratio(open_env, open_user)
                                           : Ratio(window_env, window_user);
  printf("# write_amp %s: window %.0f B written / %.0f user B = %.4f; "
         "from open %.0f / %.0f = %.4f (set-up holds %.1f%% of those user "
         "B)\n",
         wl->read_only() ? "from open" : "over the window", window_env,
         window_user, Ratio(window_env, window_user), open_env, open_user,
         Ratio(open_env, open_user), 100 * Ratio(open_user - window_user,
                                                 open_user));

  // Every sync the SimEnv saw since it was created came through the
  // wrapper; compared only now that no engine thread is mid-sync.
  if (inst.sim->sync_count() != quiet.syncs + quiet.atomic_writes) {
    problems.push_back("Env wrapper missed syncs");
  }
  std::string err;
  if (!wl->Check(&err)) problems.push_back(err);
  CrashResult crash;
  err.clear();
  if (!wl->CrashRestart(&inst, args.seed, &crash, &err)) {
    problems.push_back(err);
  }
  if (crash.ran) {
    printf("# crash-restart: burst_checkpoints=%llu acked=%llu attempted=%llu "
           "recovered_rows=%llu open_ms=%.2f records_analyzed=%llu "
           "records_redone=%llu records_undone=%llu\n",
           static_cast<unsigned long long>(crash.burst_checkpoints),
           static_cast<unsigned long long>(crash.acked),
           static_cast<unsigned long long>(crash.attempted),
           static_cast<unsigned long long>(crash.recovered_rows), crash.open_ms,
           static_cast<unsigned long long>(crash.stats.records_analyzed),
           static_cast<unsigned long long>(crash.stats.records_redone),
           static_cast<unsigned long long>(crash.stats.records_undone));
  }
  if (args.trace) {
    if (summary.spans[kOp].dur_us.empty()) {
      problems.push_back("trace recorded no operation");
    }
    if (summary.nesting_errors != 0) problems.push_back("spans did not nest");
    if (SelfSumError(summary) > 1e-5) {
      problems.push_back("span self times do not add up to op durations");
    }
  }

  PrintEndToEndTable(w, args.trace, Median(setups), write_amp, space_amp);
  std::vector<Metric> metrics;
  if (args.trace) {
    PrintSpans(&summary);
    metrics = PerLayer(w, before, after, &summary, crash, wal_segments);
  } else {
    metrics = EndToEnd(w, wl->primary(), setups, write_amp, space_amp);
  }
  for (const auto& p : problems) printf("# CHECK FAILED: %s\n", p.c_str());
  if (problems.empty()) printf("# checks: all passed\n");
  printf("%s\n", ResultJson(problems.empty(), tally.done + tally.failed,
                            tally.failed, metrics)
                     .c_str());
  fflush(stdout);
  // Skip the database's shutdown flush: it is not part of the measurement.
  std::quick_exit(0);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] "
            "[--trace 0|1]\n       perfbench --self-test\n");
    return 2;
  }
  if (args.self_test) return perfbench::RunSelfTest();
  return perfbench::Run(args);
}

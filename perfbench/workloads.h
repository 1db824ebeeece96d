// The four closed-loop workloads over the public Database API. Each call a
// workload makes into a layer is wrapped in a trace span (trace.h); the
// spans record only during the traced run's traced intervals.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/options.h"
#include "common/random.h"
#include "db/database.h"
#include "env/sim_env.h"
#include "traced_env.h"

namespace perfbench {

enum OpClass : int { kRead = 0, kWrite, kScan, kNumOpClasses };
const char* OpClassName(OpClass c);

struct OpResult {
  OpClass cls = kRead;
  bool ok = false;
  /// First Begin (or BeginSnapshot) to the final Commit returning OK,
  /// deadlock retries included; value checks run after it.
  uint64_t latency_ns = 0;
};

/// Counts one client keeps for itself (no sharing while clients run).
struct alignas(64) ClientCounts {
  uint64_t commits = 0;          // acknowledged writing transactions
  uint64_t commit_calls = 0;     // Commit() calls on writing transactions
  uint64_t retries = 0;          // deadlock/busy re-attempts
  uint64_t scans = 0;            // completed scans
  uint64_t user_bytes = 0;       // key+value bytes of acknowledged writes
  uint64_t value_mismatches = 0; // answers that differ from what was written
  uint64_t key_draws = 0;        // point_read_zipf: keys drawn
  uint64_t top_key_draws = 0;    // ... that were the top key
  uint64_t first_leaf_draws = 0; // ... that lie in the first leaf
};

/// One database under test: the SimEnv, the tracing Env over it, and the
/// open Database. Members are destroyed in reverse order.
struct Instance {
  std::unique_ptr<pitree::SimEnv> sim;
  std::unique_ptr<TracedEnv> env;
  std::unique_ptr<pitree::Database> db;
};

/// Outcome of the crash-restart check.
struct CrashResult {
  bool ran = false;
  double open_ms = 0;
  pitree::RecoveryStats stats;
  uint64_t acked = 0;
  uint64_t attempted = 0;
  uint64_t recovered_rows = 0;
  uint64_t burst_checkpoints = 0;  // checkpoints completed before the cut
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual int clients() const = 0;
  /// The class whose latency the gated end-to-end metrics report.
  virtual OpClass primary() const = 0;
  /// Every Options field this workload sets; all others stay default.
  virtual pitree::Options options() const = 0;
  virtual uint64_t sync_delay_us() const { return 0; }
  virtual uint64_t read_delay_us() const { return 0; }
  /// True when the timed window writes nothing.
  virtual bool read_only() const { return false; }

  /// Creates the indexes, loads the data and warms up (one thread).
  virtual bool Load(pitree::Database* db, std::string* err) = 0;
  /// One closed-loop operation of client `client`.
  virtual OpResult Op(int client, pitree::Random* rnd) = 0;
  /// Checks answers and invariants with every client stopped.
  virtual bool Check(std::string* err) = 0;
  /// Crashes `inst` with clients in flight, reopens and checks durability.
  /// The default does nothing.
  virtual bool CrashRestart(Instance* inst, uint64_t seed, CrashResult* out,
                            std::string* err) {
    return true;
  }

  /// A line describing what the window's operations touched, or "".
  virtual std::string Describe() const { return ""; }

  /// Key+value bytes of the records the database must keep: current
  /// values, plus every committed version in a TSB index (which keeps all).
  virtual uint64_t live_user_bytes() const = 0;
  /// Key+value bytes of acknowledged writes since Open, load included.
  uint64_t user_bytes_written() const;

  const std::vector<pitree::PiTree*>& pitrees() const { return pitrees_; }
  pitree::TsbTree* tsb() const { return tsb_; }
  ClientCounts Totals() const;
  /// Sets the client count buffers and the seed every value derives from.
  void Init(uint64_t seed);

 protected:
  uint64_t seed_ = 0;
  pitree::Database* db_ = nullptr;
  std::vector<pitree::PiTree*> pitrees_;
  pitree::TsbTree* tsb_ = nullptr;
  std::vector<ClientCounts> counts_;  // one per client; [clients()] = loader
  ClientCounts& loader() { return counts_.back(); }
};

/// The workload named `name`, or null.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

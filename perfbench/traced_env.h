// The benchmark's Env: delegates to a SimEnv, counts every call, times it
// as a trace span (trace.h), and can cut power atomically with respect to
// in-flight I/O for the crash-restart check.
#ifndef PERFBENCH_TRACED_ENV_H_
#define PERFBENCH_TRACED_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "env/env.h"
#include "env/sim_env.h"

namespace perfbench {

struct EnvCounters {
  uint64_t reads = 0;
  uint64_t bytes_written = 0;  // File::Write plus WriteFileAtomic payloads
  uint64_t syncs = 0;
  uint64_t atomic_writes = 0;  // WriteFileAtomic: SimEnv counts it a sync
  uint64_t files_created = 0;
  uint64_t files_deleted = 0;
};

class TracedEnv : public pitree::Env {
 public:
  explicit TracedEnv(pitree::SimEnv* base) : base_(base) {}
  TracedEnv(const TracedEnv&) = delete;
  TracedEnv& operator=(const TracedEnv&) = delete;

  pitree::Status OpenFile(const std::string& name,
                          std::unique_ptr<pitree::File>* file) override;
  bool FileExists(const std::string& name) const override;
  pitree::Status DeleteFile(const std::string& name) override;
  pitree::Status WriteFileAtomic(const std::string& name,
                                 const pitree::Slice& data) override;
  pitree::Status ReadFileToString(const std::string& name,
                                  std::string* data) override;

  /// Power failure: waits for calls already inside the env to return, then
  /// makes every later call through this env (and its files) fail, and
  /// drops every unsynced byte of the SimEnv. A database opened on a fresh
  /// TracedEnv over the same SimEnv sees exactly the crash image.
  void Crash();

  EnvCounters counters() const;
  /// Bytes in every file this env created or opened and did not delete.
  uint64_t LiveFileBytes();

 private:
  friend class TracedFile;
  /// Admits one call unless the power is cut; pair with Leave().
  bool Enter();
  void Leave() { inflight_.fetch_sub(1); }

  pitree::SimEnv* const base_;
  std::atomic<uint64_t> inflight_{0};
  std::atomic<bool> dead_{false};

  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> atomic_writes_{0};
  std::atomic<uint64_t> files_created_{0};
  std::atomic<uint64_t> files_deleted_{0};

  std::mutex names_mu_;
  std::set<std::string> files_;         // guarded by names_mu_
  std::set<std::string> atomic_files_;  // guarded by names_mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_ENV_H_

// Span tracing for the benchmark's traced run.
//
// The benchmark opens one root span per client operation and one child span
// around every call it makes into a layer's public API (txn, pitree, tsb,
// mvcc); the tracing Env (traced_env.h) adds a leaf span for every Env/File
// call. Spans nest per thread, so each span's self time is its duration
// minus the durations of its direct children, and the self times of an
// operation's whole subtree add up to the operation's duration.
//
// Env calls made on an engine thread with no open operation (the
// checkpointer, or any other engine thread) are charged to "background"
// instead. Client threads are marked (MarkClientThread): an Env call on a
// client thread outside a recording operation, as when tracing is switched
// on in the middle of an operation, is dropped, never charged to background.
//
// Spans are aggregated as they close into per-thread sample vectors (one
// duration and one self time per span), never shared between threads while
// tracing runs; Collect() merges them once every traced thread is quiet.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum SpanKind : int {
  kOp = 0,  // one client operation: the root of every client-thread span
  kTxnBegin,
  kTxnCommit,
  kTxnAbort,
  kPiGet,
  kPiUpdate,
  kPiInsert,
  kPiScan,
  kTsbGet,
  kTsbPut,
  kMvccBegin,
  kMvccScan,
  kEnvRead,
  kEnvWrite,
  kEnvSync,
  kEnvOpen,
  kEnvDelete,
  kEnvWriteAtomic,
  kNumSpanKinds
};

const char* SpanName(SpanKind kind);

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank percentile (q in (0, 1]) of `v`, which it reorders.
/// Returns 0 for an empty vector.
double Percentile(std::vector<double>* v, double q);

/// Merged samples of one span kind, in microseconds.
struct SpanSamples {
  std::vector<double> dur_us;
  std::vector<double> self_us;
};

/// Everything the tracer recorded between Reset() and Collect().
struct TraceSummary {
  std::array<SpanSamples, kNumSpanKinds> spans;
  uint64_t background_ns = 0;   // Env time on engine threads with no op
  uint64_t nesting_errors = 0;  // spans closed out of order / overflow
};

/// Checks the recorded samples against each other: the self times of every
/// client span, summed over all kinds, must equal the summed durations of
/// the operations (each operation's subtree self times add up to its
/// duration). Returns the relative difference, or 1 when nothing was
/// recorded; float rounding of the microsecond samples leaves well under
/// 1e-5 on a correct trace.
double SelfSumError(const TraceSummary& t);

/// Marks the calling thread as a client thread (see the file comment).
void MarkClientThread();

/// Process-wide tracer. Recording is per-thread and lock-free; the
/// registry of per-thread buffers is guarded by a mutex taken once per
/// thread.
class Tracer {
 public:
  static Tracer& Get();

  /// Root spans (operations) and background Env spans start recording only
  /// while enabled; spans nested in a recording operation always record, so
  /// toggling mid-operation never splits one.
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Discards all samples. Call only while no thread is inside a span.
  void Reset();
  /// Merges all threads' samples. Call only while no thread is inside a
  /// span (clients joined, engine background threads stopped).
  TraceSummary Collect();

  struct Frame {
    SpanKind kind;
    uint64_t start_ns;
    uint64_t child_ns;  // summed durations of direct children
  };
  static constexpr int kMaxDepth = 16;

  struct ThreadBuf {
    Frame stack[kMaxDepth];
    int depth = 0;
    std::array<std::vector<float>, kNumSpanKinds> dur_us;
    std::array<std::vector<float>, kNumSpanKinds> self_us;
    uint64_t background_ns = 0;
    uint64_t nesting_errors = 0;
  };

  /// The calling thread's buffer (registered on first use).
  ThreadBuf* Local();

 private:
  Tracer() = default;
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;  // guarded by mu_
};

/// RAII span. A no-op unless the tracer is recording on this thread (see
/// Tracer::SetEnabled). Env spans on an unmarked thread with no open
/// operation are recorded as background time.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  enum class Mode { kOff, kNested, kBackground };
  Mode mode_ = Mode::kOff;
  SpanKind kind_;
  uint64_t start_ns_ = 0;
  Tracer::ThreadBuf* buf_ = nullptr;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

#include "trace.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

constexpr const char* kSpanNames[kNumSpanKinds] = {
    "op",           "txn.begin",      "txn.commit", "txn.abort",
    "pitree.get",   "pitree.update",  "pitree.insert", "pitree.scan",
    "tsb.get",      "tsb.put",        "mvcc.begin", "mvcc.scan",
    "env.read",     "env.write",      "env.sync",   "env.open",
    "env.delete",   "env.write_atomic",
};

thread_local Tracer::ThreadBuf* tls_buf = nullptr;
thread_local bool tls_client = false;

bool IsEnvSpan(SpanKind kind) { return kind >= kEnvRead; }

}  // namespace

const char* SpanName(SpanKind kind) { return kSpanNames[kind]; }

void MarkClientThread() { tls_client = true; }

double SelfSumError(const TraceSummary& t) {
  double self = 0, ops = 0;
  for (int k = 0; k < kNumSpanKinds; ++k) {
    for (double x : t.spans[k].self_us) self += x;
  }
  for (double x : t.spans[kOp].dur_us) ops += x;
  return ops > 0 ? std::fabs(self - ops) / ops : 1;
}

double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * v->size()));
  size_t idx = rank == 0 ? 0 : std::min(rank - 1, v->size() - 1);
  std::nth_element(v->begin(), v->begin() + idx, v->end());
  return (*v)[idx];
}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // never destroyed: threads may
                                         // outlive static destruction
  return *tracer;
}

Tracer::ThreadBuf* Tracer::Local() {
  if (tls_buf == nullptr) {
    auto buf = std::make_unique<ThreadBuf>();
    tls_buf = buf.get();
    std::lock_guard<std::mutex> lk(mu_);
    bufs_.push_back(std::move(buf));
  }
  return tls_buf;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& b : bufs_) {
    int depth = b->depth;
    *b = ThreadBuf();
    b->depth = depth;  // a quiet thread has depth 0; keep it honest anyway
  }
}

TraceSummary Tracer::Collect() {
  TraceSummary out;
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& b : bufs_) {
    for (int k = 0; k < kNumSpanKinds; ++k) {
      out.spans[k].dur_us.insert(out.spans[k].dur_us.end(),
                                 b->dur_us[k].begin(), b->dur_us[k].end());
      out.spans[k].self_us.insert(out.spans[k].self_us.end(),
                                  b->self_us[k].begin(), b->self_us[k].end());
    }
    out.background_ns += b->background_ns;
    out.nesting_errors += b->nesting_errors;
  }
  return out;
}

ScopedSpan::ScopedSpan(SpanKind kind) : kind_(kind) {
  Tracer& tracer = Tracer::Get();
  Tracer::ThreadBuf* buf = tls_buf;
  bool in_op = buf != nullptr && buf->depth > 0;
  if (!in_op) {
    // Only an operation may open a client-thread trace; Env calls outside
    // one belong to background work unless a client made them; layer calls
    // outside one (set-up, checks) are not traced.
    if (kind != kOp && (!IsEnvSpan(kind) || tls_client)) return;
    if (!tracer.enabled()) return;
    buf = tracer.Local();
  }
  buf_ = buf;
  start_ns_ = NowNs();
  if (!in_op && kind != kOp) {
    mode_ = Mode::kBackground;
    return;
  }
  mode_ = Mode::kNested;
  if (buf->depth >= Tracer::kMaxDepth) {
    ++buf->nesting_errors;
    mode_ = Mode::kOff;
    return;
  }
  buf->stack[buf->depth++] = Tracer::Frame{kind, start_ns_, 0};
}

ScopedSpan::~ScopedSpan() {
  if (mode_ == Mode::kOff) return;
  uint64_t end = NowNs();
  Tracer::ThreadBuf* buf = buf_;
  uint64_t dur = end - start_ns_;
  if (mode_ == Mode::kBackground) {
    buf->background_ns += dur;
    buf->dur_us[kind_].push_back(static_cast<float>(dur / 1e3));
    return;
  }
  Tracer::Frame& f = buf->stack[buf->depth - 1];
  if (f.kind != kind_ || f.start_ns != start_ns_ || f.child_ns > dur) {
    ++buf->nesting_errors;
  }
  uint64_t self = dur - std::min(f.child_ns, dur);
  buf->dur_us[kind_].push_back(static_cast<float>(dur / 1e3));
  buf->self_us[kind_].push_back(static_cast<float>(self / 1e3));
  --buf->depth;
  if (buf->depth > 0) buf->stack[buf->depth - 1].child_ns += dur;
}

}  // namespace perfbench

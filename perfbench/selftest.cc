// The benchmark's own unit checks (perfbench --self-test): percentiles,
// span self time on a synthetic nested trace, and the tracing Env's power
// cut. run.py --self-test adds a short run of every workload.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "report.h"
#include "trace.h"
#include "traced_env.h"

namespace perfbench {

namespace {

int failures = 0;

void Expect(bool cond, const std::string& what) {
  if (!cond) {
    ++failures;
    fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
  }
}

bool Near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, reversed
  Expect(Percentile(&v, 0.50) == 50, "p50 of 1..100 is 50");
  Expect(Percentile(&v, 0.99) == 99, "p99 of 1..100 is 99");
  Expect(Percentile(&v, 1.0) == 100, "p100 of 1..100 is 100");
  Expect(v.size() == 100, "percentile keeps the sample count");
  std::vector<double> one = {7};
  Expect(Percentile(&one, 0.99) == 7, "p99 of one sample is that sample");
  std::vector<double> none;
  Expect(Percentile(&none, 0.5) == 0, "percentile of no samples is 0");
  // Nearest rank: the p99 of 1000 samples has 10 samples above it.
  std::vector<double> k(1000);
  for (int i = 0; i < 1000; ++i) k[i] = i;
  double p99 = Percentile(&k, 0.99);
  int above = 0;
  for (double x : k) above += x > p99;
  Expect(above == 10, "p99 of 1000 samples leaves 10 above it");
}

void Sleep(int us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

/// op { sleep; commit { sleep; sync { sleep } }; get { sleep } } traced on
/// one client thread, which then makes an Env call outside any operation;
/// plus a background Env span on an engine thread.
void TestSelfTime() {
  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  tracer.SetEnabled(true);
  std::thread client([] {
    MarkClientThread();
    {
      ScopedSpan op(kOp);
      Sleep(500);
      {
        ScopedSpan commit(kTxnCommit);
        Sleep(500);
        ScopedSpan sync(kEnvSync);
        Sleep(2000);
      }
      ScopedSpan get(kPiGet);
      Sleep(1000);
    }
    // As if tracing had been switched on in the middle of an operation.
    ScopedSpan read(kEnvRead);
    Sleep(5000);
  });
  client.join();
  std::thread background([] {
    ScopedSpan sync(kEnvSync);
    Sleep(300);
  });
  background.join();
  // Layer spans outside an operation are not traced.
  { ScopedSpan stray(kPiGet); }
  tracer.SetEnabled(false);
  TraceSummary t = tracer.Collect();
  tracer.Reset();

  Expect(t.spans[kOp].dur_us.size() == 1, "one operation recorded");
  Expect(t.nesting_errors == 0, "spans nest");
  Expect(SelfSumError(t) < 1e-5,
         "self times add up to the operation's duration");
  Expect(t.spans[kPiGet].dur_us.size() == 1, "stray layer span ignored");
  Expect(t.spans[kEnvRead].dur_us.empty(),
         "client Env call outside an operation dropped");
  Expect(t.spans[kEnvSync].dur_us.size() == 2, "both syncs timed");
  Expect(t.spans[kEnvSync].self_us.size() == 1,
         "background sync has no self time entry");
  Expect(t.background_ns >= 300000 && t.background_ns < 5000000,
         "only the engine thread's sync charged to background");
  if (t.spans[kOp].dur_us.size() != 1 ||
      t.spans[kTxnCommit].dur_us.size() != 1) {
    return;
  }

  const double op = t.spans[kOp].dur_us[0], op_self = t.spans[kOp].self_us[0];
  const double commit = t.spans[kTxnCommit].dur_us[0];
  const double commit_self = t.spans[kTxnCommit].self_us[0];
  const double get = t.spans[kPiGet].dur_us[0];
  double sync = t.spans[kEnvSync].self_us[0];
  const double tol = 0.01;  // float rounding of microsecond samples
  Expect(Near(commit_self, commit - sync, tol), "commit self = dur - sync");
  Expect(Near(op_self, op - commit - get, tol), "op self = dur - children");
  Expect(Near(op_self + commit_self + sync + t.spans[kPiGet].self_us[0], op,
              tol),
         "subtree self times sum to op duration");
  Expect(sync >= 2000 && commit_self >= 500 && op_self >= 500 &&
             get >= 1000,
         "each self time covers its own sleep");
  // The sum check reads the samples, so a lost or wrong one shows.
  TraceSummary lost = t;
  lost.spans[kEnvSync].self_us.clear();
  Expect(SelfSumError(lost) > 0.1, "a lost self-time sample is detected");
  TraceSummary none;
  Expect(SelfSumError(none) == 1, "an empty trace fails the sum check");
}

void TestPowerCut() {
  pitree::SimEnv sim;
  TracedEnv env(&sim);
  std::unique_ptr<pitree::File> f;
  Expect(env.OpenFile("f", &f).ok(), "open");
  Expect(f->Write(0, "durable").ok() && f->Sync().ok(), "write+sync");
  Expect(f->Write(7, "-lost").ok(), "unsynced write");
  EnvCounters c = env.counters();
  Expect(c.bytes_written == 12 && c.syncs == 1 &&
             c.files_created == 1,
         "counters");
  Expect(env.LiveFileBytes() == 12, "live bytes include unsynced tail");
  env.Crash();
  Expect(!f->Write(0, "x").ok() && !f->Sync().ok(), "calls fail after cut");
  std::unique_ptr<pitree::File> g;
  Expect(!env.OpenFile("f", &g).ok(), "open fails after cut");
  TracedEnv reopened(&sim);
  Expect(reopened.OpenFile("f", &g).ok(), "reopen on a fresh env");
  char buf[32];
  pitree::Slice got;
  Expect(g->Read(0, sizeof(buf), &got, buf).ok() &&
             got.ToString() == "durable",
         "only synced bytes survive");
}

void TestResultJson() {
  std::string j = ResultJson(true, 10, 0, {{"ops_s", 1.5, "1/s"}});
  Expect(j ==
             "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
             "\"metrics\": {\"ops_s\": {\"value\": 1.5, \"unit\": \"1/s\"}}}",
         "result JSON: " + j);
  Expect(Num(0.1) == "0.10000000000000001", "numbers keep every digit");
}

}  // namespace

int RunSelfTest() {
  TestPercentiles();
  TestSelfTime();
  TestPowerCut();
  TestResultJson();
  if (failures == 0) printf("self-test: all passed\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench

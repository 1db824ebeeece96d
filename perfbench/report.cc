#include "report.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "trace.h"

namespace perfbench {

namespace {

/// Xorshift steps per microsecond on one thread over `ms` milliseconds.
double ComputeRate(int ms) {
  uint64_t x = 0x9e3779b97f4a7c15ull;
  uint64_t steps = 0;
  uint64_t t0 = NowNs();
  uint64_t deadline = t0 + static_cast<uint64_t>(ms) * 1000000;
  uint64_t now = t0;
  while (now < deadline) {
    for (int i = 0; i < 4096; ++i) {
      x ^= x >> 12;
      x ^= x << 25;
      x ^= x >> 27;
    }
    steps += 4096;
    now = NowNs();
  }
  static std::atomic<uint64_t> sink{0};
  sink.fetch_add(x, std::memory_order_relaxed);  // keep the loop alive
  return steps / ((now - t0) / 1e3);
}

void SleepQuantiles(int us, int samples, double* p50, double* p99) {
  std::vector<double> v;
  for (int i = 0; i < samples; ++i) {
    uint64_t t0 = NowNs();
    std::this_thread::sleep_for(std::chrono::microseconds(us));
    v.push_back((NowNs() - t0) / 1e3);
  }
  *p50 = Percentile(&v, 0.50);
  *p99 = Percentile(&v, 0.99);
}

}  // namespace

Calibration Calibrate() {
  Calibration c;
  c.hardware_threads = std::thread::hardware_concurrency();
  c.compute_1t_mops = ComputeRate(200);
  double rates[2] = {0, 0};
  std::thread other([&] { rates[1] = ComputeRate(200); });
  rates[0] = ComputeRate(200);
  other.join();
  c.compute_2t_mops = rates[0] + rates[1];
  SleepQuantiles(20, 200, &c.sleep_20us_p50_us, &c.sleep_20us_p99_us);
  SleepQuantiles(100, 100, &c.sleep_100us_p50_us, &c.sleep_100us_p99_us);
  return c;
}

std::string CalibrationLine(const Calibration& c) {
  char buf[512];
  snprintf(buf, sizeof(buf),
           "calibration: hardware_threads=%u compute_1t_mops=%.1f "
           "compute_2t_mops=%.1f sleep_20us_p50_us=%.1f "
           "sleep_20us_p99_us=%.1f sleep_100us_p50_us=%.1f "
           "sleep_100us_p99_us=%.1f",
           c.hardware_threads, c.compute_1t_mops, c.compute_2t_mops,
           c.sleep_20us_p50_us, c.sleep_20us_p99_us, c.sleep_100us_p50_us,
           c.sleep_100us_p99_us);
  return buf;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

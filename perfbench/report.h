// Calibration probe and result formatting.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// What this machine delivers, recorded with every result so a slow box can
/// be told from a slow change.
struct Calibration {
  unsigned hardware_threads = 0;
  double compute_1t_mops = 0;  // xorshift steps per µs, one thread
  double compute_2t_mops = 0;  // summed over two concurrent threads
  // Measured length of the sleeps the device model requests.
  double sleep_20us_p50_us = 0;
  double sleep_20us_p99_us = 0;
  double sleep_100us_p50_us = 0;
  double sleep_100us_p99_us = 0;
};

Calibration Calibrate();
std::string CalibrationLine(const Calibration& c);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The result object: the last line the benchmark prints.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

/// A double with every digit it has ("%.17g").
std::string Num(double v);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_

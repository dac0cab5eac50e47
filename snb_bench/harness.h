// Measurement plumbing shared by the benchmark's phases: a steady-clock
// stopwatch, order statistics over samples, the metric / counter / failure
// records one run produces, and the host-speed and memory probes.
//
// Nothing here calls into the program; it only records what the phases
// measure from outside.
#ifndef SNB_BENCH_HARNESS_H_
#define SNB_BENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace snb_bench {

using Clock = std::chrono::steady_clock;

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  double Ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }
  double Us() const { return Ms() * 1000.0; }
  double S() const { return Ms() / 1000.0; }

 private:
  Clock::time_point start_;
};

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Geometric mean of the strictly positive entries.
inline double GeoMean(const std::vector<double>& v) {
  double log_sum = 0;
  size_t n = 0;
  for (double x : v) {
    if (x > 0) {
      log_sum += std::log(x);
      ++n;
    }
  }
  return n == 0 ? 0 : std::exp(log_sum / static_cast<double>(n));
}

struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything one run reports. `metrics` holds both end-to-end and per-layer
/// figures (main() selects by --trace); `counters` are the deterministic
/// work counts that must repeat exactly between runs of the same code and
/// seed; `attempted` / `failed` count checked operations.
struct RunRecord {
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> counters;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few failure descriptions

  void Set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  void Count(const std::string& name, double value) { counters[name] = value; }
  /// Records one checked operation; `ok` false counts it as failed.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }
};

/// Median wall time of a fixed ALU loop, in ms. Recorded next to the
/// results so a slow host phase can be recognised; never used to scale a
/// metric.
double SpinMedianMs(int reps);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

}  // namespace snb_bench

#endif  // SNB_BENCH_HARNESS_H_

#pragma once
// Result plumbing shared by the workloads: named metrics with units, the
// run's operation counts and check outcome, robust statistics, and the one
// JSON line the benchmark prints last.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::vector<Metric> end_to_end;  ///< reported with --trace 0
  std::vector<Metric> per_layer;   ///< reported with --trace 1
  /// Informational lines (metric name, value, unit) that are printed but
  /// not part of the JSON result: zero-valued health counters and
  /// quantities kept only for people reading the log.
  std::vector<Metric> info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;  ///< empty = every check passed

  void fail(const std::string& why) { check_failures.push_back(why); }
  bool correct() const { return check_failures.empty() && failed == 0; }
};

/// Options every workload receives from the command line.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// SplitMix64 finalizer: derives independent sub-seeds from the workload
/// seed (`stream` names the consumer), so one --seed drives every input.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Monotonic clock in nanoseconds.
std::int64_t now_ns();

/// Prints the human-readable metric lines, then the JSON result line.
void print_result(const Result& r, bool trace);

}  // namespace perfbench

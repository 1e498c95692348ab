#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

void print_metric_json(const Metric& m, bool first) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
}

void print_lines(const char* kind, const std::vector<Metric>& ms) {
  for (const auto& m : ms)
    std::printf("%-10s %-34s %.9g %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
}

}  // namespace

void print_result(const Result& r, bool trace) {
  print_lines("metric", trace ? r.per_layer : r.end_to_end);
  print_lines("info", r.info);
  for (const auto& why : r.check_failures)
    std::printf("CHECK FAILED: %s\n", why.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  const auto& ms = trace ? r.per_layer : r.end_to_end;
  for (std::size_t i = 0; i < ms.size(); ++i) print_metric_json(ms[i], i == 0);
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench

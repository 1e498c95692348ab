#include "checks.hpp"

#include <cmath>
#include <cstring>
#include <limits>

namespace perfbench {

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

double flip_low_bit(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  bits ^= 1u;
  std::memcpy(&v, &bits, sizeof(bits));
  return v;
}

}  // namespace

std::string check_training(const sgm::pinn::TrainHistory& h,
                           const std::vector<sgm::pinn::MetricEnvelope>& env) {
  if (h.records.empty()) return "training produced no validation records";
  for (const auto& rec : h.records) {
    if (!std::isfinite(rec.mean_loss))
      return "non-finite mean loss at iteration " +
             std::to_string(rec.iteration);
    for (const auto& e : rec.validation)
      if (!std::isfinite(e.error))
        return "non-finite validation error '" + e.name + "' at iteration " +
               std::to_string(rec.iteration);
  }
  if (h.divergence_rollbacks != 0)
    return std::to_string(h.divergence_rollbacks) + " divergence rollbacks";
  for (const auto& e : env) {
    const double best = h.best_error(e.metric);
    if (!(best <= e.max_error))
      return "min error of '" + e.metric + "' is " + std::to_string(best) +
             ", outside its envelope " + std::to_string(e.max_error);
  }
  return "";
}

std::string compare_histories(const sgm::pinn::TrainHistory& expected,
                              const sgm::pinn::TrainHistory& actual) {
  if (expected.records.size() != actual.records.size())
    return "record count " + std::to_string(actual.records.size()) +
           " != " + std::to_string(expected.records.size());
  for (std::size_t i = 0; i < expected.records.size(); ++i) {
    const auto& a = expected.records[i];
    const auto& b = actual.records[i];
    const std::string at = " at record " + std::to_string(i);
    if (a.iteration != b.iteration) return "iteration differs" + at;
    if (!same_bits(a.mean_loss, b.mean_loss)) return "mean loss differs" + at;
    if (a.validation.size() != b.validation.size())
      return "validation metric count differs" + at;
    for (std::size_t j = 0; j < a.validation.size(); ++j) {
      if (a.validation[j].name != b.validation[j].name)
        return "validation metric name differs" + at;
      if (!same_bits(a.validation[j].error, b.validation[j].error))
        return "validation error '" + a.validation[j].name + "' differs" + at;
    }
  }
  return "";
}

std::vector<std::string> self_test_training(
    const sgm::pinn::TrainHistory& h,
    const std::vector<sgm::pinn::MetricEnvelope>& env) {
  std::vector<std::string> out;
  auto expect_fail = [&](const std::string& verdict, const char* what) {
    if (verdict.empty())
      out.push_back(std::string("self-test: check accepted ") + what);
  };
  if (!check_training(h, env).empty() || !compare_histories(h, h).empty()) {
    out.push_back("self-test: the reference history does not pass");
    return out;
  }
  if (!env.empty()) {
    auto missed = h;
    for (auto& rec : missed.records)
      for (auto& e : rec.validation)
        if (e.name == env.front().metric) e.error = 2.0 * env.front().max_error;
    expect_fail(check_training(missed, env), "a missed envelope");
  }
  auto nan_loss = h;
  nan_loss.records.back().mean_loss = std::numeric_limits<double>::quiet_NaN();
  expect_fail(check_training(nan_loss, env), "a non-finite loss");
  auto rolled = h;
  rolled.divergence_rollbacks = 1;
  expect_fail(check_training(rolled, env), "a divergence rollback");
  auto flipped = h;
  for (auto& rec : flipped.records)
    if (!rec.validation.empty()) {
      rec.validation.back().error = flip_low_bit(rec.validation.back().error);
      break;
    }
  expect_fail(compare_histories(h, flipped), "a flipped validation bit");
  return out;
}

std::string check_response(int status, std::uint64_t version,
                           const std::vector<double>& y,
                           const ExpectedOutputs& expected, std::size_t input,
                           std::uint64_t max_published) {
  if (status != 200) return "HTTP status " + std::to_string(status);
  if (version < 1 || version > max_published)
    return "version " + std::to_string(version) + " was never published";
  if (y.size() != expected.output_dim)
    return "y has " + std::to_string(y.size()) + " values";
  const double* want = expected.row(version, input);
  for (std::size_t j = 0; j < y.size(); ++j)
    if (!same_bits(y[j], want[j]))
      return "y[" + std::to_string(j) + "] differs from Mlp::forward of v" +
             std::to_string(version);
  return "";
}

std::vector<std::string> self_test_response(const ExpectedOutputs& expected,
                                            std::uint64_t max_published) {
  std::vector<std::string> out;
  auto expect_fail = [&](const std::string& verdict, const char* what) {
    if (verdict.empty())
      out.push_back(std::string("self-test: check accepted ") + what);
  };
  const std::uint64_t v = 1;
  const double* row = expected.row(v, 0);
  const std::vector<double> good(row, row + expected.output_dim);
  if (!check_response(200, v, good, expected, 0, max_published).empty()) {
    out.push_back("self-test: a correct response does not pass");
    return out;
  }
  auto flipped = good;
  flipped[0] = flip_low_bit(flipped[0]);
  expect_fail(check_response(200, v, flipped, expected, 0, max_published),
              "a flipped bit");
  expect_fail(check_response(200, v + 1, good, expected, 0, max_published),
              "a wrong (published) version");
  expect_fail(
      check_response(200, max_published + 1, good, expected, 0, max_published),
      "an unpublished version");
  expect_fail(check_response(503, v, good, expected, 0, max_published),
              "a 503 status");
  return out;
}

}  // namespace perfbench

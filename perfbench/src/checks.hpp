#pragma once
// Output checks. Each returns "" when the output is correct and a reason
// otherwise, and each has a self-test that feeds it a deliberately
// corrupted output and confirms it fails — a check that cannot fail is
// not a check. Self-test failures are reported like any other failed
// check, so a broken checker makes the run incorrect.

#include <cstdint>
#include <string>
#include <vector>

#include "pinn/scenario.hpp"
#include "pinn/trainer.hpp"

namespace perfbench {

/// Training output: at least one record, every mean loss and validation
/// error finite, no divergence rollbacks, and the best error of every
/// envelope metric within the scenario's MetricEnvelope.
std::string check_training(const sgm::pinn::TrainHistory& h,
                           const std::vector<sgm::pinn::MetricEnvelope>& env);

/// Traced-run fidelity: same iterations, bitwise-equal mean losses and
/// validation errors (wall times are not compared).
std::string compare_histories(const sgm::pinn::TrainHistory& expected,
                              const sgm::pinn::TrainHistory& actual);

/// Self-tests of the two training checks on corrupted copies of `h`
/// (which must itself pass): a missed envelope, a non-finite loss, a
/// rollback, and a single flipped bit in a validation error.
std::vector<std::string> self_test_training(
    const sgm::pinn::TrainHistory& h,
    const std::vector<sgm::pinn::MetricEnvelope>& env);

/// Precomputed serving answers: for every published model variant and
/// every input of one scenario, the lone Mlp::forward of that variant.
/// Version v of a scenario is variant (v - 1) % variants.
struct ExpectedOutputs {
  std::size_t variants = 0;
  std::size_t inputs = 0;
  std::size_t output_dim = 0;
  std::vector<double> y;  ///< [variant][input][output_dim]

  const double* row(std::uint64_t version, std::size_t input) const {
    const std::size_t v = static_cast<std::size_t>((version - 1) % variants);
    return y.data() + (v * inputs + input) * output_dim;
  }
};

/// One serving response: HTTP 200, a version in [1, max_published], and
/// `y` bitwise equal to that version's expected row for `input`.
std::string check_response(int status, std::uint64_t version,
                           const std::vector<double>& y,
                           const ExpectedOutputs& expected, std::size_t input,
                           std::uint64_t max_published);

/// Self-tests of check_response on corrupted copies of a correct answer:
/// a flipped bit, a published-but-wrong version, an unpublished version
/// and a non-200 status. `max_published` must be >= 2 and variants >= 2.
std::vector<std::string> self_test_response(const ExpectedOutputs& expected,
                                            std::uint64_t max_published);

}  // namespace perfbench

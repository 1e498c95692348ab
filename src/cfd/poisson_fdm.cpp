#include "cfd/poisson_fdm.hpp"

#include "cfd/grid_sample.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sgm::cfd {

double PoissonFdmSolution::sample(double x, double y) const {
  return sample_bilinear(t, h, x, y);
}

PoissonFdmSolution solve_poisson_dirichlet(
    const std::function<double(double, double)>& f,
    const PoissonFdmOptions& opt) {
  if (opt.n < 8) throw std::invalid_argument("PoissonFdm: grid too small");
  const int n = opt.n;
  const double h = 1.0 / (n - 1);

  PoissonFdmSolution sol;
  sol.n = n;
  sol.h = h;
  sol.t = tensor::Matrix(n, n);

  // Pre-evaluate the source term at interior nodes.
  tensor::Matrix src(n, n);
  for (int j = 1; j < n - 1; ++j)
    for (int i = 1; i < n - 1; ++i) src(j, i) = f(i * h, j * h);

  for (int sweep = 0; sweep < opt.max_sweeps; ++sweep) {
    double max_delta = 0.0;
    for (int j = 1; j < n - 1; ++j) {
      for (int i = 1; i < n - 1; ++i) {
        const double gs = 0.25 * (sol.t(j, i + 1) + sol.t(j, i - 1) +
                                  sol.t(j + 1, i) + sol.t(j - 1, i) +
                                  h * h * src(j, i));
        const double delta = gs - sol.t(j, i);
        sol.t(j, i) += opt.relaxation * delta;
        max_delta = std::max(max_delta, std::fabs(delta));
      }
    }
    sol.sweeps = sweep + 1;
    if (max_delta < opt.tolerance) {
      sol.converged = true;
      break;
    }
  }
  return sol;
}

}  // namespace sgm::cfd

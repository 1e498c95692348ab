#include "cfd/ldc_solver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace sgm::cfd {

LdcSolution solve_lid_driven_cavity(const LdcOptions& opt) {
  if (opt.n < 8) throw std::invalid_argument("LDC: grid too small");
  if (!(opt.reynolds > 0) || !std::isfinite(opt.reynolds))
    throw std::invalid_argument("LDC: Re must be finite and > 0");
  if (!std::isfinite(opt.lid_velocity))
    throw std::invalid_argument("LDC: lid velocity must be finite");
  if (opt.max_iterations < 1)
    throw std::invalid_argument("LDC: max_iterations must be >= 1");
  if (!(opt.tolerance > 0) || !std::isfinite(opt.tolerance))
    throw std::invalid_argument("LDC: tolerance must be finite and > 0");
  const int n = opt.n;
  const double h = 1.0 / (n - 1), h2 = h * h;
  const double inv_re_h2 = 1.0 / (opt.reynolds * h2);
  // Relaxation factors from h and the lid's cell Reynolds number, chosen by
  // counting passes to a 1e-9 residual over n = 8..129, Re = 1..1e4.
  // psi: the SOR optimum of the Poisson equation alone, damped as
  // convection grows; undamped, n = 24, Re = 1e4 takes > 20000 (not 910).
  // omega: 1.5 while diffusion dominates, down to 0.8 as convection takes
  // over; with a fixed 1.5, n = 16, Re = 100 (re_h = 6.7) is unconverged
  // after 20000. At n = 81, Re = 10 this gives 1.92 / 1.48 and 1190 passes.
  const double re_h = opt.reynolds * std::fabs(opt.lid_velocity) * h;
  const double psi_relaxation =
      1.0 + (2.0 / (1.0 + std::sin(M_PI * h)) - 1.0) * 16.0 / (16.0 + re_h);
  const double omega_relaxation = 0.8 + 0.7 * 4.0 / (4.0 + re_h);
  const int check_every = 10;  // passes between residual checks

  LdcSolution sol;
  sol.n = n;
  sol.h = h;
  sol.u = sol.v = sol.psi = sol.omega = tensor::Matrix(n, n);
  tensor::Matrix &u = sol.u, &v = sol.v, &psi = sol.psi, &w = sol.omega;
  for (int i = 0; i < n; ++i) u(n - 1, i) = opt.lid_velocity;

  // Jacobi corrections: the change zeroing a node's residual, neighbours fixed.
  const auto psi_correction = [&](int j, int i) {
    return 0.25 * (psi(j, i + 1) + psi(j, i - 1) + psi(j + 1, i) +
                   psi(j - 1, i) + h2 * w(j, i)) -
           psi(j, i);
  };
  const auto omega_correction = [&](int j, int i) {  // first-order upwind
    const double cu = u(j, i) / h, cv = v(j, i) / h;
    const double ae = inv_re_h2 + std::max(-cu, 0.0);
    const double aw = inv_re_h2 + std::max(cu, 0.0);
    const double an = inv_re_h2 + std::max(-cv, 0.0);
    const double as = inv_re_h2 + std::max(cv, 0.0);
    return (ae * w(j, i + 1) + aw * w(j, i - 1) + an * w(j + 1, i) +
            as * w(j - 1, i)) / (ae + aw + an + as) -
           w(j, i);
  };
  // Larger relative residual; NaN-propagating, so divergence never converges.
  const auto relative_residual = [&] {
    const auto top = [](double a, double b) {
      return a < b || std::isnan(b) ? b : a;
    };
    double r = 0.0, w_max = 0.0;
    for (int j = 1; j < n - 1; ++j)
      for (int i = 1; i < n - 1; ++i)
        r = top(top(r, std::fabs(psi_correction(j, i)) * 4.0 / h2),
                std::fabs(omega_correction(j, i)));
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i) w_max = top(w_max, std::fabs(w(j, i)));
    return w_max > 0.0 ? r / w_max : r;
  };

  for (int outer = 1; outer <= opt.max_iterations; ++outer) {
    for (int j = 1; j < n - 1; ++j)
      for (int i = 1; i < n - 1; ++i)
        psi(j, i) += psi_relaxation * psi_correction(j, i);

    // Velocities from the streamfunction (central differences).
    for (int j = 1; j < n - 1; ++j)
      for (int i = 1; i < n - 1; ++i) {
        u(j, i) = (psi(j + 1, i) - psi(j - 1, i)) / (2 * h);
        v(j, i) = -(psi(j, i + 1) - psi(j, i - 1)) / (2 * h);
      }

    // Wall vorticity via Thom's formula: bottom, moving lid, left, right.
    // The side walls write last at the lid corners, which end at zero.
    for (int k = 0; k < n; ++k) {
      w(0, k) = -2.0 * psi(1, k) / h2;
      w(n - 1, k) = -2.0 * psi(n - 2, k) / h2 - 2.0 * opt.lid_velocity / h;
      w(k, 0) = -2.0 * psi(k, 1) / h2;
      w(k, n - 1) = -2.0 * psi(k, n - 2) / h2;
    }

    for (int j = 1; j < n - 1; ++j)
      for (int i = 1; i < n - 1; ++i)
        w(j, i) += omega_relaxation * omega_correction(j, i);

    sol.iterations = outer;
    if (outer % check_every == 0 || outer == opt.max_iterations) {
      sol.residual = relative_residual();
      sol.converged = sol.residual <= opt.tolerance;
      if (sol.converged || !std::isfinite(sol.residual)) break;  // or diverged
    }
  }
  return sol;
}

const std::vector<std::pair<double, double>>& ghia_re100_u_centerline() {
  // Ghia, Ghia & Shin (1982), Table I, Re = 100: u along x = 0.5.
  static const std::vector<std::pair<double, double>> data = {
      {0.0000, 0.00000},  {0.0547, -0.03717}, {0.0625, -0.04192},
      {0.0703, -0.04775}, {0.1016, -0.06434}, {0.1719, -0.10150},
      {0.2813, -0.15662}, {0.4531, -0.21090}, {0.5000, -0.20581},
      {0.6172, -0.13641}, {0.7344, 0.00332},  {0.8516, 0.23151},
      {0.9531, 0.68717},  {0.9609, 0.73722},  {0.9688, 0.78871},
      {0.9766, 0.84123},  {1.0000, 1.00000}};
  return data;
}

const std::vector<std::pair<double, double>>& ghia_re100_v_centerline() {
  // Ghia, Ghia & Shin (1982), Table II, Re = 100: v along y = 0.5.
  static const std::vector<std::pair<double, double>> data = {
      {0.0000, 0.00000},  {0.0625, 0.09233},  {0.0703, 0.10091},
      {0.0781, 0.10890},  {0.0938, 0.12317},  {0.1563, 0.16077},
      {0.2266, 0.17507},  {0.2344, 0.17527},  {0.5000, 0.05454},
      {0.8047, -0.24533}, {0.8594, -0.22445}, {0.9063, -0.16914},
      {0.9453, -0.10313}, {0.9531, -0.08864}, {0.9609, -0.07391},
      {0.9688, -0.05906}, {1.0000, 0.00000}};
  return data;
}

}  // namespace sgm::cfd

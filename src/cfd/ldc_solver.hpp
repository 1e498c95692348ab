#pragma once
// Classical finite-difference solver for the steady lid-driven cavity —
// the validation-data generator standing in for the paper's OpenFOAM
// reference fields.
//
// Vorticity-streamfunction formulation on a uniform n x n grid:
//   nabla^2 psi = -omega
//   u dw/dx + v dw/dy = (1/Re) nabla^2 omega   (first-order upwind)
// with Thom's wall formula for boundary vorticity. Each outer iteration is
// one serial in-place pass: an SOR sweep of psi, the velocities, the wall
// vorticity, an SOR sweep of omega. `converged` means both discrete
// equations hold on the returned fields: at every interior node the
// point-Jacobi correction of each (psi's times 4/h^2) is at most
// `tolerance` times max|omega|. Verified in tests against the published
// Ghia, Ghia & Shin (1982) centerline profiles.

#include "cfd/grid_sample.hpp"

namespace sgm::cfd {

struct LdcOptions {
  int n = 129;                  ///< grid points per side
  double reynolds = 100.0;
  double lid_velocity = 1.0;
  int max_iterations = 100000;  ///< outer fused passes
  double tolerance = 1e-9;      ///< relative residual of both equations
};

struct LdcSolution {
  int n = 0;
  double h = 0.0;  ///< grid spacing (domain is the unit square)
  tensor::Matrix u, v, psi, omega;  ///< (n x n), row = y index, col = x index
  bool converged = false;
  int iterations = 0;
  double residual = 0.0;  ///< relative residual at the last check

  /// Bilinear interpolation of a field at (x, y); see sample_bilinear.
  double sample(const tensor::Matrix& field, double x, double y) const {
    return sample_bilinear(field, h, x, y);
  }
  double sample_u(double x, double y) const { return sample(u, x, y); }
  double sample_v(double x, double y) const { return sample(v, x, y); }
};

/// Solves the cavity; throws std::invalid_argument on bad options.
LdcSolution solve_lid_driven_cavity(const LdcOptions& options);

/// Published Ghia et al. (1982) u-velocity along the vertical centerline
/// (x = 0.5) for Re = 100, as (y, u) pairs — test reference data.
const std::vector<std::pair<double, double>>& ghia_re100_u_centerline();

/// Ghia et al. v-velocity along the horizontal centerline (y = 0.5), Re=100.
const std::vector<std::pair<double, double>>& ghia_re100_v_centerline();

}  // namespace sgm::cfd

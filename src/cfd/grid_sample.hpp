#pragma once
// Bilinear sampling of a node field on the uniform grid of the unit square
// that the finite-difference reference solvers share.

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/matrix.hpp"

namespace sgm::cfd {

/// Interpolates `field` (n x n nodes, row = y index, col = x index, spacing
/// h = 1/(n-1)) at (x, y). Coordinates outside [0,1]^2 are clamped onto the
/// boundary; a non-finite coordinate has no cell and throws
/// std::invalid_argument.
inline double sample_bilinear(const tensor::Matrix& field, double h,
                              double x, double y) {
  if (!std::isfinite(x) || !std::isfinite(y))
    throw std::invalid_argument("sample: non-finite coordinate");
  const int n = static_cast<int>(field.rows());
  const double cx = std::clamp(x, 0.0, 1.0) / h;
  const double cy = std::clamp(y, 0.0, 1.0) / h;
  const int i0 = std::min(static_cast<int>(cx), n - 2);
  const int j0 = std::min(static_cast<int>(cy), n - 2);
  const double fx = cx - i0, fy = cy - j0;
  return field(j0, i0) * (1 - fx) * (1 - fy) +
         field(j0, i0 + 1) * fx * (1 - fy) +
         field(j0 + 1, i0) * (1 - fx) * fy + field(j0 + 1, i0 + 1) * fx * fy;
}

}  // namespace sgm::cfd

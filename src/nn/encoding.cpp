#include "nn/encoding.hpp"

#include <cmath>
#include <stdexcept>

namespace sgm::nn {

using tensor::Matrix;

namespace {

void check_orders(const Matrix& x, int n_deriv, int n_lap) {
  if (n_lap < 0 || n_lap > n_deriv ||
      static_cast<std::size_t>(n_deriv) > x.cols())
    throw std::invalid_argument("InputEncoding::encode: bad n_deriv/n_lap");
}

}  // namespace

void IdentityEncoding::encode(const Matrix& x, int n_deriv, int n_lap,
                              const EncodeBuffers& out) const {
  check_orders(x, n_deriv, n_lap);
  *out.e = x;  // copy-assign reuses the destination's buffer
  for (int k = 0; k < n_deriv; ++k) {
    Matrix& dk = *out.de[k];
    dk.resize(x.rows(), x.cols());
    dk.set_zero();
    for (std::size_t r = 0; r < x.rows(); ++r)
      dk(r, static_cast<std::size_t>(k)) = 1.0;
  }
  if (n_lap > 0) {
    out.lap->resize(x.rows(), x.cols());
    out.lap->set_zero();
  }
}

FourierEncoding::FourierEncoding(std::size_t input_dim, std::size_t n_freq,
                                 double sigma, util::Rng& rng)
    : b_(input_dim, n_freq) {
  for (std::size_t i = 0; i < input_dim; ++i)
    for (std::size_t j = 0; j < n_freq; ++j) b_(i, j) = rng.normal(0.0, sigma);
}

FourierEncoding::FourierEncoding(Matrix frequencies)
    : b_(std::move(frequencies)) {
  if (b_.rows() == 0 || b_.cols() == 0)
    throw std::invalid_argument("FourierEncoding: empty frequency matrix");
}

std::size_t FourierEncoding::output_dim(std::size_t input_dim) const {
  if (input_dim != b_.rows())
    throw std::invalid_argument("FourierEncoding: input_dim mismatch");
  return input_dim + 2 * b_.cols();
}

void FourierEncoding::encode(const Matrix& x, int n_deriv, int n_lap,
                             const EncodeBuffers& out) const {
  if (x.cols() != b_.rows())
    throw std::invalid_argument("FourierEncoding: batch width mismatch");
  check_orders(x, n_deriv, n_lap);
  const std::size_t n = x.rows(), d = x.cols(), f = b_.cols();
  const std::size_t width = d + 2 * f;
  // The phase x B through the kernel tensor::matmul uses, so E and dE keep
  // their bits whatever buffer the phase lands in.
  Matrix& phase = *out.scratch;
  phase.resize(n, f);
  tensor::gemm_nn(x, b_, phase, 0, n, /*accumulate=*/false);

  Matrix& e = *out.e;
  e.resize(n, width);
  for (int k = 0; k < n_deriv; ++k) out.de[k]->resize(n, width);
  if (n_lap > 0) out.lap->resize(n, width);

  for (std::size_t r = 0; r < n; ++r) {
    // Pass-through block: E = x, dE[k] = unit column k, Laplacian 0.
    double* er = e.row(r);
    for (std::size_t c = 0; c < d; ++c) er[c] = x(r, c);
    for (int k = 0; k < n_deriv; ++k) {
      double* dr = out.de[k]->row(r);
      for (std::size_t c = 0; c < d; ++c)
        dr[c] = c == static_cast<std::size_t>(k) ? 1.0 : 0.0;
    }
    double* lr = n_lap > 0 ? out.lap->row(r) : nullptr;
    if (lr)
      for (std::size_t c = 0; c < d; ++c) lr[c] = 0.0;

    for (std::size_t j = 0; j < f; ++j) {
      const double p = phase(r, j);
      const double sp = std::sin(p), cp = std::cos(p);
      er[d + j] = sp;
      er[d + f + j] = cp;
      for (int k = 0; k < n_deriv; ++k) {
        const double bkj = b_(static_cast<std::size_t>(k), j);
        double* dr = out.de[k]->row(r);
        dr[d + j] = bkj * cp;        // d sin / dx_k
        dr[d + f + j] = -bkj * sp;   // d cos / dx_k
      }
      if (lr) {
        // sum_k d2/dx_k^2 of sin / cos = -(sum_k b_kj^2) sin / cos.
        double b2 = 0.0;
        for (int k = 0; k < n_lap; ++k) {
          const double bkj = b_(static_cast<std::size_t>(k), j);
          b2 += bkj * bkj;
        }
        lr[d + j] = -b2 * sp;
        lr[d + f + j] = -b2 * cp;
      }
    }
  }
}

}  // namespace sgm::nn

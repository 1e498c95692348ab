#pragma once
// Input encodings (the phi_E layer of Eq. 2 in the paper).
//
// Encodings are constant w.r.t. the trainable parameters, so their values
// and spatial derivatives are computed eagerly as plain matrices and enter
// the tape as constants. Each encoding reports the value E, the Jacobian
// columns dE[k] = dE/dx_k for the first `n_deriv` input dimensions, and the
// Laplacian sum_{k < n_lap} d2E/dx_k^2 over the first `n_lap` of them — the
// one second-order quantity the MLP propagates (see nn/mlp.hpp).
//
// Every destination is resized in place, so pooled buffers (tape slots, a
// serving workspace) are refilled without touching the allocator.

#include <memory>
#include <vector>

#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace sgm::nn {

/// Where InputEncoding::encode writes; all resized in place.
struct EncodeBuffers {
  tensor::Matrix* e = nullptr;  ///< E (n x output_dim)
  /// de[k] = dE/dx_k for k < n_deriv; may be null when n_deriv = 0.
  tensor::Matrix* const* de = nullptr;
  /// sum_{k < n_lap} d2E/dx_k^2; may be null when n_lap = 0.
  tensor::Matrix* lap = nullptr;
  tensor::Matrix* scratch = nullptr;  ///< encoding-private workspace
};

class InputEncoding {
 public:
  virtual ~InputEncoding() = default;

  /// Width of the encoded feature vector for a given raw input width.
  virtual std::size_t output_dim(std::size_t input_dim) const = 0;

  /// Encode batch X (n x input_dim) into `out`: E, the n_deriv Jacobian
  /// columns and, when n_lap > 0, the Laplacian over the first n_lap input
  /// dimensions, each n x output_dim. Requires n_lap <= n_deriv <= input_dim.
  virtual void encode(const tensor::Matrix& x, int n_deriv, int n_lap,
                      const EncodeBuffers& out) const = 0;
};

/// Pass-through (no encoding).
class IdentityEncoding final : public InputEncoding {
 public:
  std::size_t output_dim(std::size_t input_dim) const override {
    return input_dim;
  }
  void encode(const tensor::Matrix& x, int n_deriv, int n_lap,
              const EncodeBuffers& out) const override;
};

/// Fourier features: E = [x, sin(x B), cos(x B)] with a fixed frequency
/// matrix B (input_dim x n_freq). Modulus enables these by default for CFD
/// examples; they sharpen the network's ability to fit boundary layers.
/// The phase x B is staged in `scratch`.
class FourierEncoding final : public InputEncoding {
 public:
  /// Frequencies drawn as N(0, sigma^2); fixed thereafter (not trainable).
  FourierEncoding(std::size_t input_dim, std::size_t n_freq, double sigma,
                  util::Rng& rng);

  /// Explicit frequency matrix (input_dim x n_freq).
  explicit FourierEncoding(tensor::Matrix frequencies);

  std::size_t output_dim(std::size_t input_dim) const override;
  void encode(const tensor::Matrix& x, int n_deriv, int n_lap,
              const EncodeBuffers& out) const override;

  const tensor::Matrix& frequencies() const { return b_; }

 private:
  tensor::Matrix b_;  // input_dim x n_freq
};

}  // namespace sgm::nn

#include "nn/mlp.hpp"

#include <cmath>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace sgm::nn {

using tensor::Matrix;
using tensor::Tape;
using tensor::VarId;

Mlp::Mlp(MlpConfig cfg, util::Rng& rng) : cfg_(std::move(cfg)) {
  if (cfg_.depth == 0) throw std::invalid_argument("Mlp: depth must be >= 1");
  if (!cfg_.activation) throw std::invalid_argument("Mlp: null activation");
  std::vector<std::size_t> dims;
  dims.push_back(encoded_dim());
  for (std::size_t l = 0; l < cfg_.depth; ++l) dims.push_back(cfg_.width);
  dims.push_back(cfg_.output_dim);

  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    const std::size_t fan_in = dims[l], fan_out = dims[l + 1];
    const double bound = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
    Matrix w(fan_in, fan_out);
    for (std::size_t i = 0; i < w.size(); ++i)
      w.data()[i] = rng.uniform(-bound, bound);
    weights_.push_back(std::move(w));
    biases_.emplace_back(1, fan_out);
  }
}

std::size_t Mlp::encoded_dim() const {
  return cfg_.encoding ? cfg_.encoding->output_dim(cfg_.input_dim)
                       : cfg_.input_dim;
}

std::size_t Mlp::num_parameters() const {
  std::size_t n = 0;
  for (const auto& w : weights_) n += w.size();
  for (const auto& b : biases_) n += b.size();
  return n;
}

Matrix Mlp::forward(const Matrix& x) const {
  Matrix a;
  if (cfg_.encoding) {
    Matrix scratch;
    cfg_.encoding->encode(x, 0, 0, {&a, nullptr, nullptr, &scratch});
  } else {
    a = x;
  }
  const std::size_t n_layers = weights_.size();
  for (std::size_t l = 0; l < n_layers; ++l) {
    Matrix z = tensor::matmul(a, weights_[l]);
    for (std::size_t r = 0; r < z.rows(); ++r)
      for (std::size_t c = 0; c < z.cols(); ++c) z(r, c) += biases_[l](0, c);
    if (l + 1 < n_layers) {
      double* zp = z.data();
      cfg_.activation->eval_orders(zp, z.size(), 0, &zp);
    }
    a = std::move(z);
  }
  return a;
}

void Mlp::forward_batched(const Matrix& x, Matrix& out, ForwardWorkspace& ws,
                          std::size_t num_threads) const {
  if (x.cols() != cfg_.input_dim)
    throw std::invalid_argument("Mlp::forward_batched: input width mismatch");
  const std::size_t n = x.rows();
  const Matrix* src = &x;
  if (cfg_.encoding) {
    cfg_.encoding->encode(x, 0, 0,
                          {&ws.e, nullptr, nullptr, &ws.encode_scratch});
    src = &ws.e;
  }
  const Activation& act = *cfg_.activation;
  const std::size_t n_layers = weights_.size();
  for (std::size_t l = 0; l < n_layers; ++l) {
    const bool last = (l + 1 == n_layers);
    const Matrix& w = weights_[l];
    const Matrix& b = biases_[l];
    // Ping-pong between the pooled activations; the last layer writes
    // straight into `out` (which must not alias `x`).
    Matrix& dst = last ? out : (src == &ws.a ? ws.z : ws.a);
    dst.resize(n, w.cols());
    const Matrix& in = *src;
    util::parallel_for_chunks(
        0, n, /*grain=*/32, num_threads,
        [&](std::size_t r0, std::size_t r1, std::size_t) {
          tensor::gemm_nn(in, w, dst, r0, r1, /*accumulate=*/false);
          for (std::size_t r = r0; r < r1; ++r) {
            double* row = dst.row(r);
            for (std::size_t c = 0; c < dst.cols(); ++c) row[c] += b(0, c);
          }
          if (!last) {
            // Rows [r0, r1) are contiguous: one array call per chunk, each
            // element as forward() computes it.
            double* chunk = dst.row(r0);
            act.eval_orders(chunk, (r1 - r0) * dst.cols(), 0, &chunk);
          }
        });
    src = &dst;
  }
}

Mlp::Binding Mlp::bind(Tape& tape) const {
  Binding binding;
  bind(tape, &binding);
  return binding;
}

void Mlp::bind(Tape& tape, Binding* binding) const {
  binding->w.clear();
  binding->b.clear();
  for (const auto& w : weights_) binding->w.push_back(tape.parameter(w));
  for (const auto& b : biases_) binding->b.push_back(tape.parameter(b));
}

Mlp::TapeOutputs Mlp::forward_on_tape(Tape& tape, const Binding& binding,
                                      const Matrix& x, int n_deriv,
                                      int n_lap) const {
  TapeOutputs out;
  forward_on_tape(tape, binding, x, n_deriv, n_lap, &out);
  return out;
}

void Mlp::forward_on_tape(Tape& tape, const Binding& binding, const Matrix& x,
                          int n_deriv, int n_lap, TapeOutputs* out) const {
  if (x.cols() != cfg_.input_dim)
    throw std::invalid_argument("Mlp::forward_on_tape: input width mismatch");
  if (n_deriv < 0 || static_cast<std::size_t>(n_deriv) > cfg_.input_dim ||
      n_deriv > kMaxDeriv)
    throw std::invalid_argument("Mlp::forward_on_tape: bad n_deriv");
  if (n_lap < 0 || n_lap > n_deriv)
    throw std::invalid_argument("Mlp::forward_on_tape: bad n_lap");

  // Encoded inputs and their spatial derivatives are constants on the tape,
  // encoded straight into arena slots (no staging matrices). Every slot is
  // allocated before any is written: allocation may move the node pool.
  static const IdentityEncoding kIdentity;
  const InputEncoding& enc = cfg_.encoding ? *cfg_.encoding : kIdentity;
  VarId a = tape.constant_uninit(0, 0);
  std::array<VarId, kMaxDeriv> ak{};
  for (int k = 0; k < n_deriv; ++k) ak[k] = tape.constant_uninit(0, 0);
  VarId lap = n_lap > 0 ? tape.constant_uninit(0, 0) : tensor::kNoVar;
  const VarId scratch = tape.constant_uninit(0, 0);
  std::array<Matrix*, kMaxDeriv> de{};
  for (int k = 0; k < n_deriv; ++k) de[k] = &tape.mutable_value(ak[k]);
  enc.encode(x, n_deriv, n_lap,
             {&tape.mutable_value(a), de.data(),
              n_lap > 0 ? &tape.mutable_value(lap) : nullptr,
              &tape.mutable_value(scratch)});

  const Activation& act = *cfg_.activation;
  const std::size_t n_layers = weights_.size();
  for (std::size_t l = 0; l < n_layers; ++l) {
    const bool last = (l + 1 == n_layers);
    const VarId w = binding.w[l];
    const VarId z = tensor::affine(tape, a, w, binding.b[l]);
    // Recorded as z, Z_0, LZ, Z_1, ...: a gradient sums its contributions
    // in reverse recording order, and this order keeps an n_lap = 1 pass
    // bitwise equal to per-dimension Hessian-diagonal propagation.
    std::array<VarId, kMaxDeriv> zk{};
    VarId lz = tensor::kNoVar;
    for (int k = 0; k < n_deriv; ++k) {
      zk[k] = tensor::matmul(tape, ak[k], w);
      if (k == 0 && n_lap > 0) lz = tensor::matmul(tape, lap, w);
    }
    if (last) {
      a = z;
      ak = zk;
      lap = lz;
    } else {
      // One fused sweep gives sigma and every derivative order the layer
      // update and its backward need.
      const int orders = n_lap > 0 ? 3 : n_deriv > 0 ? 2 : 1;
      const VarId s = tensor::activation(tape, z, act, orders);
      a = s;
      if (n_lap > 0)
        lap = tensor::act_laplacian(
            tape, s, std::span<const VarId>(zk.data(), n_lap), lz);
      for (int k = 0; k < n_deriv; ++k)
        ak[k] = tensor::act_chain(tape, s, zk[k]);
    }
  }

  out->y = a;
  out->dy.assign(ak.begin(), ak.begin() + n_deriv);
  out->lap = lap;
}

std::vector<Matrix> Mlp::collect_grads(const Tape& tape,
                                       const Binding& binding) const {
  std::vector<Matrix> grads;
  collect_grads_into(tape, binding, &grads);
  return grads;
}

void Mlp::collect_grads_into(const Tape& tape, const Binding& binding,
                             std::vector<Matrix>* grads) const {
  grads->resize(weights_.size() + biases_.size());
  std::size_t idx = 0;
  auto take = [&](VarId id, const Matrix& shape_like) {
    const Matrix& g = tape.grad(id);
    Matrix& dst = (*grads)[idx++];
    if (g.empty()) {
      dst.resize(shape_like.rows(), shape_like.cols());
      dst.set_zero();
    } else {
      dst = g;  // copy-assign reuses the pooled buffer
    }
  };
  for (std::size_t l = 0; l < weights_.size(); ++l)
    take(binding.w[l], weights_[l]);
  for (std::size_t l = 0; l < biases_.size(); ++l)
    take(binding.b[l], biases_[l]);
}

std::vector<Matrix*> Mlp::parameters() {
  std::vector<Matrix*> p;
  for (auto& w : weights_) p.push_back(&w);
  for (auto& b : biases_) p.push_back(&b);
  return p;
}

std::vector<const Matrix*> Mlp::parameters() const {
  std::vector<const Matrix*> p;
  for (const auto& w : weights_) p.push_back(&w);
  for (const auto& b : biases_) p.push_back(&b);
  return p;
}

void Mlp::set_parameters(const std::vector<Matrix>& params) {
  auto mine = parameters();
  if (params.size() != mine.size())
    throw std::invalid_argument("Mlp::set_parameters: count mismatch");
  for (std::size_t i = 0; i < mine.size(); ++i) {
    if (!mine[i]->same_shape(params[i]))
      throw std::invalid_argument("Mlp::set_parameters: shape mismatch");
    *mine[i] = params[i];
  }
}

}  // namespace sgm::nn

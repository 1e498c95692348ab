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
    std::vector<Matrix> de, d2e;
    cfg_.encoding->encode(x, 0, a, de, d2e);
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
    cfg_.encoding->encode(x, 0, ws.e, ws.de, ws.d2e);
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
                                      const Matrix& x, int n_deriv) const {
  TapeOutputs out;
  forward_on_tape(tape, binding, x, n_deriv, &out);
  return out;
}

void Mlp::forward_on_tape(Tape& tape, const Binding& binding, const Matrix& x,
                          int n_deriv, TapeOutputs* out) const {
  if (x.cols() != cfg_.input_dim)
    throw std::invalid_argument("Mlp::forward_on_tape: input width mismatch");
  if (n_deriv < 0 || static_cast<std::size_t>(n_deriv) > cfg_.input_dim ||
      n_deriv > kMaxDeriv)
    throw std::invalid_argument("Mlp::forward_on_tape: bad n_deriv");

  // Encoded inputs and their spatial derivatives are constants on the tape.
  // The identity path writes them straight into the arena (no staging
  // matrices), which keeps the steady-state step allocation-free.
  VarId a = tensor::kNoVar;
  std::array<VarId, kMaxDeriv> ak{}, hk{};
  if (!cfg_.encoding) {
    a = tape.constant(x);
    for (int k = 0; k < n_deriv; ++k) {
      ak[k] = tape.constant_uninit(x.rows(), x.cols());
      Matrix& dv = tape.mutable_value(ak[k]);
      dv.set_zero();
      for (std::size_t r = 0; r < dv.rows(); ++r)
        dv(r, static_cast<std::size_t>(k)) = 1.0;
      hk[k] = tape.constant_uninit(x.rows(), x.cols());
      tape.mutable_value(hk[k]).set_zero();
    }
  } else {
    Matrix e;
    std::vector<Matrix> de, d2e;
    cfg_.encoding->encode(x, n_deriv, e, de, d2e);
    a = tape.constant(e);
    for (int k = 0; k < n_deriv; ++k) {
      ak[k] = tape.constant(de[k]);
      hk[k] = tape.constant(d2e[k]);
    }
  }

  const Activation& act = *cfg_.activation;
  const std::size_t n_layers = weights_.size();
  for (std::size_t l = 0; l < n_layers; ++l) {
    const bool last = (l + 1 == n_layers);
    const VarId z = tensor::affine(tape, a, binding.w[l], binding.b[l]);
    std::array<VarId, kMaxDeriv> zk{}, hzk{};
    for (int k = 0; k < n_deriv; ++k) {
      zk[k] = tensor::matmul(tape, ak[k], binding.w[l]);
      hzk[k] = tensor::matmul(tape, hk[k], binding.w[l]);
    }
    if (last) {
      a = z;
      ak = zk;
      hk = hzk;
    } else {
      // One fused sweep gives sigma and every derivative order the layer
      // update and its backward need (3 when propagating derivatives).
      const VarId s =
          tensor::activation(tape, z, act, /*orders=*/n_deriv > 0 ? 3 : 1);
      a = s;
      for (int k = 0; k < n_deriv; ++k) {
        hk[k] = tensor::act_curve(tape, s, zk[k], hzk[k]);
        ak[k] = tensor::act_chain(tape, s, zk[k]);
      }
    }
  }

  out->y = a;
  out->dy.clear();
  out->d2y.clear();
  for (int k = 0; k < n_deriv; ++k) {
    out->dy.push_back(ak[k]);
    out->d2y.push_back(hk[k]);
  }
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

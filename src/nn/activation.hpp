#pragma once
// Activation functions with analytic derivatives up to order 3.
//
// PDE residuals need second derivatives of the network w.r.t. its inputs;
// those second derivatives are themselves differentiated w.r.t. the weights
// during backprop, which requires one more derivative order — hence every
// activation supplies f, f', f'' and f'''.

#include <string>

#include "tensor/ops.hpp"

namespace sgm::nn {

class Activation : public tensor::ElementwiseFunction {
 public:
  virtual std::string name() const = 0;
};

/// SiLU / swish: f(x) = x * sigmoid(x). The paper's networks use SiLU.
class Silu final : public Activation {
 public:
  double eval(double x, int order) const override;
  void eval_orders(const double* x, std::size_t n, int max_order,
                   double* const* out) const override;
  std::string name() const override { return "silu"; }
};

class Tanh final : public Activation {
 public:
  double eval(double x, int order) const override;
  void eval_orders(const double* x, std::size_t n, int max_order,
                   double* const* out) const override;
  std::string name() const override { return "tanh"; }
};

class Sigmoid final : public Activation {
 public:
  double eval(double x, int order) const override;
  void eval_orders(const double* x, std::size_t n, int max_order,
                   double* const* out) const override;
  std::string name() const override { return "sigmoid"; }
};

/// sin(w0 * x) — SIREN-style periodic activation.
class Sine final : public Activation {
 public:
  explicit Sine(double w0 = 1.0) : w0_(w0) {}
  double eval(double x, int order) const override;
  void eval_orders(const double* x, std::size_t n, int max_order,
                   double* const* out) const override;
  std::string name() const override { return "sine"; }

 private:
  double w0_;
};

class Identity final : public Activation {
 public:
  double eval(double x, int order) const override;
  std::string name() const override { return "identity"; }
};

/// Long-lived singletons (the tape stores raw pointers to activations).
const Activation& silu();
const Activation& tanh_act();
const Activation& sigmoid_act();
const Activation& sine_act();
const Activation& identity_act();

/// Lookup by name ("silu", "tanh", "sigmoid", "sine", "identity");
/// throws std::invalid_argument on unknown names.
const Activation& activation_by_name(const std::string& name);

}  // namespace sgm::nn

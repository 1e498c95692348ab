#include "nn/activation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace sgm::nn {

namespace {

// Each ladder computes all four orders v[0..3] of f at x from `pre`, the one
// libm value per element (exp(-|x|) or tanh(x)). eval() and eval_orders()
// share them, so the two agree bit for bit; the arithmetic of orders a
// caller does not store is dead code.

// logistic(x) from e = exp(-|x|): 1 / (1 + e) for x >= 0 and e / (1 + e)
// otherwise, the stable form for large |x|. Selecting the numerator rather
// than branching keeps the array pass free of sign-dependent jumps.
inline double logistic_from(double x, double e) {
  return (x >= 0 ? 1.0 : e) / (1.0 + e);
}

inline double exp_neg_abs(double x) { return std::exp(-std::fabs(x)); }

inline void silu_ladder(double x, double e, double* v) {
  const double s = logistic_from(x, e);
  const double s1 = s * (1.0 - s);                         // sigma'
  const double s2 = s1 * (1.0 - 2.0 * s);                  // sigma''
  const double s3 = s2 * (1.0 - 2.0 * s) - 2.0 * s1 * s1;  // sigma'''
  v[0] = x * s;
  v[1] = s + x * s1;
  v[2] = 2.0 * s1 + x * s2;
  v[3] = 3.0 * s2 + x * s3;
}

inline void sigmoid_ladder(double x, double e, double* v) {
  const double s = logistic_from(x, e);
  const double s1 = s * (1.0 - s);
  v[0] = s;
  v[1] = s1;
  v[2] = s1 * (1.0 - 2.0 * s);
  v[3] = s1 * (1.0 - 2.0 * s) * (1.0 - 2.0 * s) - 2.0 * s1 * s1;
}

inline void tanh_ladder(double /*x*/, double f, double* v) {
  const double g = 1.0 - f * f;  // f'
  v[0] = f;
  v[1] = g;
  v[2] = -2.0 * f * g;
  v[3] = -2.0 * g * (1.0 - 3.0 * f * f);
}

double pick_order(const double* v, int order, const char* name) {
  if (order < 0 || order > 3)
    throw std::invalid_argument(std::string(name) +
                                ": derivative order > 3 not supported");
  return v[order];
}

using PreFn = double (*)(double);
using LadderFn = void (*)(double, double, double*);

// Pass 2 over one block: the branch-free ladder from the staged x and pre
// values, storing orders 0..K. (Template arguments, not function pointers
// passed at run time, so the ladder inlines and the loop vectorizes.)
template <int K, LadderFn Ladder>
void ladder_pass(const double* __restrict xb, const double* __restrict pb,
                 std::size_t m, double* __restrict o0, double* __restrict o1,
                 double* __restrict o2, double* __restrict o3) {
  for (std::size_t i = 0; i < m; ++i) {
    double v[4];
    Ladder(xb[i], pb[i], v);
    o0[i] = v[0];
    if constexpr (K >= 1) o1[i] = v[1];
    if constexpr (K >= 2) o2[i] = v[2];
    if constexpr (K >= 3) o3[i] = v[3];
  }
}

// Blocks of kBlock elements: pass 1 stages x and its libm value on the
// stack (so out[0] may alias x), pass 2 runs the ladder.
template <int K, PreFn Pre, LadderFn Ladder>
void sweep(const double* x, std::size_t n, double* const* out) {
  constexpr std::size_t kBlock = 256;
  double xb[kBlock], pb[kBlock];
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t m = std::min(kBlock, n - b);
    for (std::size_t i = 0; i < m; ++i) {
      xb[i] = x[b + i];
      pb[i] = Pre(xb[i]);
    }
    ladder_pass<K, Ladder>(xb, pb, m, out[0] + b,
                           K >= 1 ? out[1] + b : nullptr,
                           K >= 2 ? out[2] + b : nullptr,
                           K >= 3 ? out[3] + b : nullptr);
  }
}

template <PreFn Pre, LadderFn Ladder>
void sweep_orders(const double* x, std::size_t n, int max_order,
                  double* const* out, const char* name) {
  switch (max_order) {
    case 0: return sweep<0, Pre, Ladder>(x, n, out);
    case 1: return sweep<1, Pre, Ladder>(x, n, out);
    case 2: return sweep<2, Pre, Ladder>(x, n, out);
    case 3: return sweep<3, Pre, Ladder>(x, n, out);
    default:
      throw std::invalid_argument(std::string(name) +
                                  ": derivative order > 3 not supported");
  }
}

double tanh_of(double x) { return std::tanh(x); }

}  // namespace

double Silu::eval(double x, int order) const {
  double v[4];
  silu_ladder(x, exp_neg_abs(x), v);
  return pick_order(v, order, "Silu");
}

void Silu::eval_orders(const double* x, std::size_t n, int max_order,
                       double* const* out) const {
  // One exp per element for the whole derivative ladder: this is the fused
  // activation sweep the tape's kActivation node performs per chunk.
  sweep_orders<exp_neg_abs, silu_ladder>(x, n, max_order, out, "Silu");
}

double Tanh::eval(double x, int order) const {
  double v[4];
  tanh_ladder(x, std::tanh(x), v);
  return pick_order(v, order, "Tanh");
}

void Tanh::eval_orders(const double* x, std::size_t n, int max_order,
                       double* const* out) const {
  sweep_orders<tanh_of, tanh_ladder>(x, n, max_order, out, "Tanh");
}

double Sigmoid::eval(double x, int order) const {
  double v[4];
  sigmoid_ladder(x, exp_neg_abs(x), v);
  return pick_order(v, order, "Sigmoid");
}

void Sigmoid::eval_orders(const double* x, std::size_t n, int max_order,
                          double* const* out) const {
  sweep_orders<exp_neg_abs, sigmoid_ladder>(x, n, max_order, out,
                                            "Sigmoid");
}

double Sine::eval(double x, int order) const {
  const double w = w0_;
  const double a = w * x;
  switch (order) {
    case 0: return std::sin(a);
    case 1: return w * std::cos(a);
    case 2: return -w * w * std::sin(a);
    case 3: return -w * w * w * std::cos(a);
    default:
      throw std::invalid_argument("Sine: derivative order > 3 not supported");
  }
}

void Sine::eval_orders(const double* x, std::size_t n, int max_order,
                       double* const* out) const {
  if (max_order < 0 || max_order > 3)
    throw std::invalid_argument("Sine: derivative order > 3 not supported");
  const double w = w0_;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = w * x[i];
    const double sn = std::sin(a), cs = std::cos(a);
    out[0][i] = sn;
    if (max_order >= 1) out[1][i] = w * cs;
    if (max_order >= 2) out[2][i] = -w * w * sn;
    if (max_order >= 3) out[3][i] = -w * w * w * cs;
  }
}

double Identity::eval(double x, int order) const {
  switch (order) {
    case 0: return x;
    case 1: return 1.0;
    default: return 0.0;
  }
}

const Activation& silu() {
  static const Silu a;
  return a;
}
const Activation& tanh_act() {
  static const Tanh a;
  return a;
}
const Activation& sigmoid_act() {
  static const Sigmoid a;
  return a;
}
const Activation& sine_act() {
  static const Sine a;
  return a;
}
const Activation& identity_act() {
  static const Identity a;
  return a;
}

const Activation& activation_by_name(const std::string& name) {
  if (name == "silu") return silu();
  if (name == "tanh") return tanh_act();
  if (name == "sigmoid") return sigmoid_act();
  if (name == "sine") return sine_act();
  if (name == "identity") return identity_act();
  throw std::invalid_argument("unknown activation: " + name);
}

}  // namespace sgm::nn

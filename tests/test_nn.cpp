// Unit tests for sgm::nn — activation derivative ladders, encodings, the
// MLP's input-derivative propagation (checked against finite differences of
// the plain forward pass), and parameter gradients through second-order
// terms (the mechanism every PDE loss relies on).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "nn/activation.hpp"
#include "nn/encoding.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace {

using sgm::nn::Mlp;
using sgm::nn::MlpConfig;
using sgm::tensor::Matrix;
using sgm::tensor::Tape;
using sgm::tensor::VarId;
namespace ops = sgm::tensor;

// ------------------------------------------------------------ Activations --

class ActivationDerivatives
    : public ::testing::TestWithParam<const sgm::nn::Activation*> {};

TEST_P(ActivationDerivatives, FiniteDifferenceLadder) {
  const auto& act = *GetParam();
  const double h = 1e-5;
  for (double x : {-2.0, -0.5, 0.0, 0.3, 1.7}) {
    for (int order = 0; order < 3; ++order) {
      const double analytic = act.eval(x, order + 1);
      const double numeric =
          (act.eval(x + h, order) - act.eval(x - h, order)) / (2 * h);
      EXPECT_NEAR(analytic, numeric, 1e-6)
          << act.name() << " order " << order + 1 << " at x=" << x;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllActivations, ActivationDerivatives,
    ::testing::Values(&sgm::nn::silu(), &sgm::nn::tanh_act(),
                      &sgm::nn::sigmoid_act(), &sgm::nn::sine_act(),
                      &sgm::nn::identity_act()),
    [](const auto& info) { return info.param->name(); });

TEST_P(ActivationDerivatives, ArrayLadderMatchesScalarEvalBitwise) {
  // The array form the tape and the forward passes call once per chunk
  // must give, element by element and order by order, what eval(x, k)
  // gives. n = 2 * 256 + 37 is odd (not a multiple of any vector width)
  // and spans the activations' 256-element staging blocks; the special
  // inputs cover signed zeros, denormal-range, saturation and overflow of
  // exp, and NaN.
  const auto& act = *GetParam();
  std::vector<double> x = {0.0,    -0.0,  1e-300, -1e-300, 20.0,  -20.0,
                           40.0,   -40.0, 710.0,  -710.0,  800.0, -800.0,
                           std::nan("")};
  sgm::util::Rng rng(5);
  while (x.size() < 2 * 256 + 37) x.push_back(rng.normal(0.0, 3.0));
  const std::size_t n = x.size();
  auto same = [](double scalar, double array) {
    if (std::isnan(scalar)) return std::isnan(array);
    return std::bit_cast<std::uint64_t>(scalar) ==
           std::bit_cast<std::uint64_t>(array);
  };
  for (int max_order = 0; max_order <= 3; ++max_order) {
    std::vector<std::vector<double>> out(4, std::vector<double>(n, -1.0));
    double* const o[4] = {out[0].data(), out[1].data(), out[2].data(),
                          out[3].data()};
    act.eval_orders(x.data(), n, max_order, o);
    for (int k = 0; k <= max_order; ++k)
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_TRUE(same(act.eval(x[i], k), out[k][i]))
            << act.name() << " order " << k << " of " << max_order
            << " at x=" << x[i] << ": " << act.eval(x[i], k) << " vs "
            << out[k][i];
  }
  // In place (out[0] aliasing x), as Mlp::forward calls it.
  std::vector<double> y = x;
  double* yp = y.data();
  act.eval_orders(yp, n, 0, &yp);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_TRUE(same(act.eval(x[i], 0), y[i]))
        << act.name() << " in place at x=" << x[i];
}

TEST(Activation, LookupByName) {
  EXPECT_EQ(sgm::nn::activation_by_name("silu").name(), "silu");
  EXPECT_EQ(sgm::nn::activation_by_name("tanh").name(), "tanh");
  EXPECT_THROW(sgm::nn::activation_by_name("relu6"), std::invalid_argument);
}

TEST(Activation, SiluKnownValues) {
  const auto& s = sgm::nn::silu();
  EXPECT_NEAR(s.eval(0.0, 0), 0.0, 1e-12);
  EXPECT_NEAR(s.eval(0.0, 1), 0.5, 1e-12);  // f'(0) = sigma(0) = 0.5
  EXPECT_NEAR(s.eval(10.0, 0), 10.0 / (1 + std::exp(-10.0)), 1e-9);
}

// -------------------------------------------------------------- Encodings --

// Encodes with fresh destination matrices (n_deriv Jacobian columns, plus
// the Laplacian over the first n_lap dimensions when n_lap > 0).
struct Encoded {
  Matrix e, lap, scratch;
  std::vector<Matrix> de;
};

Encoded encode(const sgm::nn::InputEncoding& enc, const Matrix& x,
               int n_deriv, int n_lap) {
  Encoded out;
  out.de.resize(static_cast<std::size_t>(n_deriv));
  std::vector<Matrix*> de;
  for (auto& m : out.de) de.push_back(&m);
  enc.encode(x, n_deriv, n_lap,
             {&out.e, de.data(), &out.lap, &out.scratch});
  return out;
}

TEST(Encoding, IdentityShapesAndJacobian) {
  sgm::nn::IdentityEncoding enc;
  Matrix x{{0.3, 0.8}, {0.1, 0.2}};
  const Encoded out = encode(enc, x, 2, 2);
  EXPECT_EQ(out.e.rows(), 2u);
  EXPECT_EQ(out.e.cols(), 2u);
  EXPECT_DOUBLE_EQ(out.de[0](0, 0), 1.0);
  EXPECT_DOUBLE_EQ(out.de[0](0, 1), 0.0);
  EXPECT_DOUBLE_EQ(out.de[1](1, 1), 1.0);
  EXPECT_EQ(out.lap.rows(), 2u);
  EXPECT_EQ(out.lap.cols(), 2u);
  EXPECT_DOUBLE_EQ(out.lap.max_abs(), 0.0);
}

TEST(Encoding, FourierDerivativesMatchFiniteDifference) {
  sgm::util::Rng rng(5);
  sgm::nn::FourierEncoding enc(2, 4, 1.5, rng);
  Matrix x{{0.4, -0.2}};
  const double h = 1e-5;
  auto at = [&](int k, double dx) {
    Matrix xs = x;
    xs(0, k) += dx;
    return encode(enc, xs, 0, 0).e;
  };
  for (int n_lap = 1; n_lap <= 2; ++n_lap) {
    const Encoded out = encode(enc, x, 2, n_lap);
    Matrix lap_fd(1, out.e.cols());
    for (int k = 0; k < 2; ++k) {
      const Matrix ep = at(k, h), em = at(k, -h);
      for (std::size_t c = 0; c < out.e.cols(); ++c) {
        EXPECT_NEAR(out.de[k](0, c), (ep(0, c) - em(0, c)) / (2 * h), 1e-6);
        if (k < n_lap)
          lap_fd(0, c) += (ep(0, c) - 2 * out.e(0, c) + em(0, c)) / (h * h);
      }
    }
    for (std::size_t c = 0; c < out.e.cols(); ++c)
      EXPECT_NEAR(out.lap(0, c), lap_fd(0, c), 1e-4)
          << "n_lap " << n_lap << " col " << c;
  }
}

TEST(Encoding, FourierValuesMatchUnstagedFormula) {
  // The phase goes through the same GEMM as tensor::matmul wherever it is
  // staged, so E and dE are bitwise the closed forms over matmul(x, B).
  sgm::util::Rng rng(9);
  sgm::nn::FourierEncoding enc(3, 5, 1.2, rng);
  Matrix x(7, 3);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = rng.uniform(-1.0, 1.0);
  const Encoded out = encode(enc, x, 2, 1);
  const Matrix phase = sgm::tensor::matmul(x, enc.frequencies());
  const Matrix& b = enc.frequencies();
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t j = 0; j < 5; ++j) {
      const double sp = std::sin(phase(r, j)), cp = std::cos(phase(r, j));
      EXPECT_EQ(out.e(r, 3 + j), sp);
      EXPECT_EQ(out.e(r, 8 + j), cp);
      for (std::size_t k = 0; k < 2; ++k) {
        EXPECT_EQ(out.de[k](r, 3 + j), b(k, j) * cp);
        EXPECT_EQ(out.de[k](r, 8 + j), -b(k, j) * sp);
      }
      EXPECT_EQ(out.lap(r, 3 + j), -b(0, j) * b(0, j) * sp);
      EXPECT_EQ(out.lap(r, 8 + j), -b(0, j) * b(0, j) * cp);
    }
  }
}

TEST(Encoding, FourierOutputDim) {
  sgm::util::Rng rng(6);
  sgm::nn::FourierEncoding enc(3, 8, 1.0, rng);
  EXPECT_EQ(enc.output_dim(3), 3u + 16u);
  EXPECT_THROW(enc.output_dim(2), std::invalid_argument);
}

// --------------------------------------------------------------------- MLP --

MlpConfig small_config(std::size_t in, std::size_t out,
                       const sgm::nn::Activation& act = sgm::nn::silu()) {
  MlpConfig cfg;
  cfg.input_dim = in;
  cfg.output_dim = out;
  cfg.width = 8;
  cfg.depth = 3;
  cfg.activation = &act;
  return cfg;
}

TEST(Mlp, ParameterCount) {
  sgm::util::Rng rng(1);
  Mlp net(small_config(2, 3), rng);
  // Layers: 2->8, 8->8, 8->8, 8->3 with biases.
  const std::size_t expect = (2 * 8 + 8) + 2 * (8 * 8 + 8) + (8 * 3 + 3);
  EXPECT_EQ(net.num_parameters(), expect);
}

TEST(Mlp, ForwardMatchesTapeForward) {
  sgm::util::Rng rng(2);
  Mlp net(small_config(2, 3), rng);
  Matrix x{{0.1, 0.9}, {-0.4, 0.3}, {0.7, 0.7}};
  const Matrix direct = net.forward(x);
  Tape tape;
  auto binding = net.bind(tape);
  auto out = net.forward_on_tape(tape, binding, x, 0, 0);
  EXPECT_LT((direct - tape.value(out.y)).max_abs(), 1e-12);
  EXPECT_EQ(out.lap, sgm::tensor::kNoVar);
}

TEST(Mlp, InputJacobianMatchesFiniteDifference) {
  sgm::util::Rng rng(3);
  Mlp net(small_config(2, 3), rng);
  Matrix x{{0.25, -0.5}};
  Tape tape;
  auto binding = net.bind(tape);
  auto out = net.forward_on_tape(tape, binding, x, 2, 0);

  const double h = 1e-6;
  for (int k = 0; k < 2; ++k) {
    Matrix xp = x, xm = x;
    xp(0, k) += h;
    xm(0, k) -= h;
    const Matrix fp = net.forward(xp);
    const Matrix fm = net.forward(xm);
    for (std::size_t c = 0; c < 3; ++c) {
      const double numeric = (fp(0, c) - fm(0, c)) / (2 * h);
      EXPECT_NEAR(tape.value(out.dy[k])(0, c), numeric, 1e-6)
          << "dim " << k << " out " << c;
    }
  }
}

TEST(Mlp, InputHessianDiagonalMatchesFiniteDifference) {
  // The Laplacian stream against the sum of per-dimension central second
  // differences: n_lap = 1 and 2 of a 2-input net, n_lap = 2 of a 3-input
  // net (annular's shape: dims 0 and 1 of (z, r, r_i)) and n_lap = 3.
  struct Case {
    std::size_t inputs;
    int n_deriv, n_lap;
  };
  for (const Case cs : {Case{2, 2, 1}, Case{2, 2, 2}, Case{3, 2, 2},
                        Case{3, 3, 3}}) {
    sgm::util::Rng rng(4);
    Mlp net(small_config(cs.inputs, 2), rng);
    Matrix x(2, cs.inputs);
    for (std::size_t i = 0; i < x.size(); ++i)
      x.data()[i] = rng.uniform(-0.5, 0.7);
    Tape tape;
    auto binding = net.bind(tape);
    auto out = net.forward_on_tape(tape, binding, x, cs.n_deriv, cs.n_lap);
    ASSERT_EQ(out.dy.size(), static_cast<std::size_t>(cs.n_deriv));

    const double h = 1e-4;
    const Matrix f0 = net.forward(x);
    for (std::size_t row = 0; row < 2; ++row) {
      for (std::size_t c = 0; c < 2; ++c) {
        double numeric = 0.0;
        for (int k = 0; k < cs.n_lap; ++k) {
          Matrix xp = x, xm = x;
          xp(row, k) += h;
          xm(row, k) -= h;
          numeric += (net.forward(xp)(row, c) - 2 * f0(row, c) +
                      net.forward(xm)(row, c)) /
                     (h * h);
        }
        EXPECT_NEAR(tape.value(out.lap)(row, c), numeric, 5e-5)
            << cs.inputs << " inputs, n_lap " << cs.n_lap << ", row " << row
            << " out " << c;
      }
    }
  }
}

TEST(Mlp, BadLaplacianDimensionCountThrows) {
  sgm::util::Rng rng(12);
  Mlp net(small_config(3, 1), rng);
  Matrix x{{0.1, 0.2, 0.3}};
  Tape tape;
  auto binding = net.bind(tape);
  for (const auto& [n_deriv, n_lap] :
       {std::pair{2, -1}, std::pair{2, 3}, std::pair{0, 1},
        std::pair{1, 2}}) {
    EXPECT_THROW(net.forward_on_tape(tape, binding, x, n_deriv, n_lap),
                 std::invalid_argument)
        << "n_deriv " << n_deriv << " n_lap " << n_lap;
  }
  EXPECT_NO_THROW(net.forward_on_tape(tape, binding, x, 3, 3));
}

// Parameterized over the tape's worker-thread count: the analytic gradient
// must match finite differences bit-for-bit regardless of threading (the
// threaded kernels are write-disjoint with fixed per-element accumulation
// order), so the same FD tolerance must hold at 1 and 4 threads.
class MlpGradcheck : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MlpGradcheck, SecondOrderLossParamGradcheck) {
  // The crux: d/dtheta of a loss built from u_xx. Verified against central
  // differences on a few randomly chosen parameters.
  const std::size_t num_threads = GetParam();
  sgm::util::Rng rng(5);
  Mlp net(small_config(2, 1), rng);
  Matrix x{{0.2, 0.4}, {0.6, -0.3}, {-0.5, 0.9}};

  auto loss_value = [&](Mlp& m) {
    Tape t;
    t.set_num_threads(num_threads);
    auto b = m.bind(t);
    auto out = m.forward_on_tape(t, b, x, 2, 2);
    VarId mixed = ops::add(t, out.lap, ops::mul(t, out.y, out.dy[0]));
    return t.value(ops::mean_all(t, ops::square(t, mixed)))(0, 0);
  };

  Tape tape;
  tape.set_num_threads(num_threads);
  auto binding = net.bind(tape);
  auto out = net.forward_on_tape(tape, binding, x, 2, 2);
  VarId mixed = ops::add(tape, out.lap, ops::mul(tape, out.y, out.dy[0]));
  VarId loss = ops::mean_all(tape, ops::square(tape, mixed));
  tape.backward(loss);
  auto grads = net.collect_grads(tape, binding);

  auto params = net.parameters();
  ASSERT_EQ(params.size(), grads.size());
  const double h = 1e-5;
  sgm::util::Rng pick(99);
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    // Probe two random entries per parameter tensor.
    for (int probe = 0; probe < 2; ++probe) {
      const std::size_t idx = pick.uniform_index(params[pi]->size());
      const double orig = params[pi]->data()[idx];
      params[pi]->data()[idx] = orig + h;
      const double fp = loss_value(net);
      params[pi]->data()[idx] = orig - h;
      const double fm = loss_value(net);
      params[pi]->data()[idx] = orig;
      const double numeric = (fp - fm) / (2 * h);
      EXPECT_NEAR(grads[pi].data()[idx], numeric, 5e-5)
          << "param " << pi << " entry " << idx;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, MlpGradcheck, ::testing::Values(1u, 4u),
                         [](const auto& info) {
                           return "threads_" + std::to_string(info.param);
                         });

TEST(Mlp, FourierEncodedDerivativesStillCorrect) {
  sgm::util::Rng rng(6);
  MlpConfig cfg = small_config(2, 1);
  cfg.encoding = std::make_shared<sgm::nn::FourierEncoding>(2, 4, 1.0, rng);
  Mlp net(cfg, rng);
  Matrix x{{0.3, 0.5}};
  const double h = 1e-4;
  for (int n_lap = 1; n_lap <= 2; ++n_lap) {
    Tape tape;
    auto binding = net.bind(tape);
    auto out = net.forward_on_tape(tape, binding, x, 2, n_lap);
    double numeric2 = 0.0;
    for (int k = 0; k < 2; ++k) {
      Matrix xp = x, xm = x;
      xp(0, k) += h;
      xm(0, k) -= h;
      const double numeric1 =
          (net.forward(xp)(0, 0) - net.forward(xm)(0, 0)) / (2 * h);
      EXPECT_NEAR(tape.value(out.dy[k])(0, 0), numeric1, 1e-5);
      if (k < n_lap)
        numeric2 += (net.forward(xp)(0, 0) - 2 * net.forward(x)(0, 0) +
                     net.forward(xm)(0, 0)) /
                    (h * h);
    }
    EXPECT_NEAR(tape.value(out.lap)(0, 0), numeric2, 1e-3)
        << "n_lap " << n_lap;
  }
}

TEST(Mlp, SetParametersRoundTrip) {
  sgm::util::Rng rng(7);
  Mlp a(small_config(2, 1), rng);
  Mlp b(small_config(2, 1), rng);  // different init
  std::vector<Matrix> snapshot;
  for (const auto* p : a.parameters()) snapshot.push_back(*p);
  b.set_parameters(snapshot);
  Matrix x{{0.1, 0.2}};
  EXPECT_LT((a.forward(x) - b.forward(x)).max_abs(), 1e-14);
}

TEST(Mlp, PartialDerivDimsOnly) {
  // n_deriv = 2 of a 3-input network: derivatives w.r.t. dims 0 and 1 only
  // (the parameterized-problem configuration).
  sgm::util::Rng rng(8);
  Mlp net(small_config(3, 2), rng);
  Matrix x{{0.1, 0.5, 0.9}};
  Tape tape;
  auto binding = net.bind(tape);
  auto out = net.forward_on_tape(tape, binding, x, 2, 2);
  EXPECT_EQ(out.dy.size(), 2u);
  const double h = 1e-6;
  Matrix xp = x, xm = x;
  xp(0, 1) += h;
  xm(0, 1) -= h;
  const double numeric =
      (net.forward(xp)(0, 0) - net.forward(xm)(0, 0)) / (2 * h);
  EXPECT_NEAR(tape.value(out.dy[1])(0, 0), numeric, 1e-6);
}

// -------------------------------------------------------------- Optimizers --

TEST(Optimizer, SgdQuadraticConverges) {
  // Minimize f(w) = 0.5 ||w - target||^2 by explicit gradients.
  Matrix w(1, 4, 0.0);
  Matrix target{{1, -2, 3, 0.5}};
  sgm::nn::Sgd opt(0.2, 0.5);
  for (int it = 0; it < 200; ++it) {
    Matrix g = w - target;
    opt.step({&w}, {g});
  }
  EXPECT_LT((w - target).max_abs(), 1e-6);
  EXPECT_EQ(opt.iterations(), 200u);
}

TEST(Optimizer, AdamQuadraticConverges) {
  Matrix w(1, 4, 0.0);
  Matrix target{{1, -2, 3, 0.5}};
  sgm::nn::Adam opt(0.1);
  for (int it = 0; it < 800; ++it) {
    Matrix g = w - target;
    opt.step({&w}, {g});
  }
  EXPECT_LT((w - target).max_abs(), 1e-3);
}

TEST(Optimizer, AdamRejectsShapeMismatch) {
  Matrix w(1, 4);
  sgm::nn::Adam opt(0.1);
  EXPECT_THROW(opt.step({&w}, {Matrix(2, 2)}), std::invalid_argument);
}

TEST(Optimizer, ExponentialDecaySchedule) {
  sgm::nn::ExponentialDecaySchedule sched(1e-3, 0.5, 100);
  EXPECT_DOUBLE_EQ(sched.lr(0), 1e-3);
  EXPECT_NEAR(sched.lr(100), 5e-4, 1e-12);
  EXPECT_NEAR(sched.lr(200), 2.5e-4, 1e-12);
}

}  // namespace

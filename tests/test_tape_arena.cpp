// Tape v2 regression tests: the bump-arena reuse contract (zero heap
// allocations in the steady-state tape/forward/backward path), the fused
// affine/activation ops against their unfused compositions, the blocked
// GEMM kernels against the naive _reference oracles over random and
// degenerate shapes, and bitwise thread-count invariance of the threaded
// kernels.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "nn/activation.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "tensor/tape.hpp"
#include "util/rng.hpp"

// ------------------------------------------------------ allocation counter --
// Global operator new/delete hook. Counting is scoped: only allocations made
// between arm() and disarm() on the main thread are counted, so gtest's own
// bookkeeping stays out of the tally.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using sgm::nn::Mlp;
using sgm::nn::MlpConfig;
using sgm::tensor::Matrix;
using sgm::tensor::Tape;
using sgm::tensor::VarId;
namespace ops = sgm::tensor;

struct AllocScope {
  AllocScope() {
    g_alloc_count.store(0);
    g_count_allocs.store(true);
  }
  ~AllocScope() { g_count_allocs.store(false); }
  std::uint64_t count() const { return g_alloc_count.load(); }
};

Matrix random_matrix(std::size_t r, std::size_t c, sgm::util::Rng& rng,
                     double scale = 1.0) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = rng.normal(0.0, scale);
  return m;
}

// ------------------------------------------------------------ arena reuse --

TEST(TapeArena, ClearRetainsCapacityAndReusesSlots) {
  Tape t;
  sgm::util::Rng rng(1);
  const Matrix a0 = random_matrix(16, 8, rng);
  const Matrix b0 = random_matrix(16, 8, rng);
  VarId p = t.parameter(a0);
  VarId c = t.constant(b0);
  VarId root = ops::mean_all(t, ops::square(t, ops::mul(t, p, c)));
  t.backward(root);
  const double g00 = t.grad(p)(0, 0);
  const std::size_t nodes = t.num_nodes();

  for (int step = 0; step < 3; ++step) {
    t.clear();
    EXPECT_EQ(t.num_nodes(), 0u);
    p = t.parameter(a0);
    c = t.constant(b0);
    root = ops::mean_all(t, ops::square(t, ops::mul(t, p, c)));
    EXPECT_EQ(t.num_nodes(), nodes);
    t.backward(root);
    EXPECT_DOUBLE_EQ(t.grad(p)(0, 0), g00) << "reuse changed the result";
  }
}

TEST(TapeArena, GradOfUntouchedNodeIsEmptyAfterReuse) {
  Tape t;
  // First pass: a constant that never receives a gradient, but whose slot's
  // grad buffer gets dirtied when the slot is later reused as a parameter.
  VarId p = t.parameter(Matrix(2, 2, 1.0));
  VarId root = ops::sum_all(t, p);
  t.backward(root);
  EXPECT_FALSE(t.grad(p).empty());

  t.clear();
  VarId c = t.constant(Matrix(2, 2, 3.0));  // reuses the parameter's slot
  VarId p2 = t.parameter(Matrix(2, 2, 2.0));
  root = ops::sum_all(t, ops::mul(t, c, p2));
  t.backward(root);
  EXPECT_TRUE(t.grad(c).empty()) << "stale grad leaked through slot reuse";
  EXPECT_DOUBLE_EQ(t.grad(p2)(0, 0), 3.0);
}

TEST(TapeArena, FirstGradientContributionOfMinusZeroEndsAtPlusZero) {
  // Write-first gradients store term + 0.0 on a node's first contribution,
  // so a -0.0 term still lands as +0.0, exactly as 0.0 + term into a
  // zero-filled buffer did. A later -0.0 contribution keeps the +0.0.
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  Tape t;
  const VarId p = t.parameter(Matrix{{1.0, 2.0, 3.0}});
  const VarId c = t.constant(Matrix{{-0.0, 0.0, 5.0}});
  // d/dp of sum(p ⊙ c) is c (kMul); d/dh of sum(h ⊙ c) is c, and h's
  // first contribution comes from that product.
  const VarId h = ops::scale(t, p, 2.0);
  const VarId root = ops::add(t, ops::sum_all(t, ops::mul(t, p, c)),
                              ops::sum_all(t, ops::mul(t, h, c)));
  t.backward(root);
  const Matrix& gh = t.grad(h);
  EXPECT_EQ(bits(gh(0, 0)), bits(0.0)) << "first contribution -0.0";
  EXPECT_EQ(bits(gh(0, 1)), bits(0.0));
  EXPECT_EQ(bits(gh(0, 2)), bits(5.0));
  // p gets the kMul term first (-0.0 -> +0.0), then 2.0 * grad(h).
  const Matrix& gp = t.grad(p);
  EXPECT_EQ(bits(gp(0, 0)), bits(0.0));
  EXPECT_EQ(bits(gp(0, 2)), bits(15.0));

  // A lone scale by -1 of a +0.0 gradient: the term is -0.0, stored +0.0.
  Tape t2;
  const VarId q = t2.parameter(Matrix{{4.0, -4.0}});
  const VarId z = t2.constant(Matrix{{0.0, 0.0}});
  const VarId root2 =
      ops::sum_all(t2, ops::mul(t2, ops::scale(t2, q, -1.0), z));
  t2.backward(root2);
  EXPECT_EQ(bits(t2.grad(q)(0, 0)), bits(0.0));
  EXPECT_EQ(bits(t2.grad(q)(0, 1)), bits(0.0));
}

// After warm-up, a full training iteration's tape/forward/backward path —
// clear, bind, forward with the Laplacian stream, loss, backward, grad
// collection, Adam — must perform ZERO heap allocations (num_threads=1;
// threaded dispatch enqueues task objects by design).
void ExpectSteadyStateStepAllocatesNothing(const MlpConfig& cfg) {
  sgm::util::Rng rng(7);
  Mlp net(cfg, rng);
  const Matrix x = random_matrix(32, cfg.input_dim, rng);
  sgm::nn::Adam adam(1e-3);
  const std::vector<Matrix*> params = net.parameters();

  Tape tape;
  Mlp::Binding binding;
  Mlp::TapeOutputs out;
  std::vector<Matrix> grads;

  auto step = [&]() {
    tape.clear();
    net.bind(tape, &binding);
    net.forward_on_tape(tape, binding, x, /*n_deriv=*/2, /*n_lap=*/2, &out);
    const VarId loss = ops::mean_all(tape, ops::square(tape, out.lap));
    tape.backward(loss);
    net.collect_grads_into(tape, binding, &grads);
    adam.step(params, grads);
  };

  for (int warmup = 0; warmup < 3; ++warmup) step();

  AllocScope scope;
  for (int it = 0; it < 5; ++it) step();
  EXPECT_EQ(scope.count(), 0u)
      << "steady-state training step performed heap allocations";
}

TEST(TapeArena, SteadyStateTrainingStepAllocatesNothing) {
  // The identity-encoded net of the PR 4 acceptance criterion.
  MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.output_dim = 1;
  cfg.width = 16;
  cfg.depth = 3;
  ExpectSteadyStateStepAllocatesNothing(cfg);

  // The gated workloads' shape: Fourier-encoded inputs (encoded straight
  // into the tape's constant slots) and 3 outputs.
  sgm::util::Rng enc_rng(4242);
  cfg.output_dim = 3;
  // A non-owning pointer to a local: heap-allocating the encoding here
  // makes gcc 12 flag this file's malloc-backed operator new against its
  // sized delete (-Wmismatched-new-delete).
  const sgm::nn::FourierEncoding fourier(2, 12, 1.5, enc_rng);
  cfg.encoding = std::shared_ptr<const sgm::nn::InputEncoding>(
      std::shared_ptr<void>(), &fourier);
  ExpectSteadyStateStepAllocatesNothing(cfg);
}

TEST(TapeArena, TransposeCacheIsRefreshedEachBackward) {
  // Both matmuls read w^T from w's slot, computed once per backward sweep.
  // After w's value changes in place, the next sweep must use the new
  // transpose: d/dA sum(S^2) = 2 S w^T with S the recorded A w + B w.
  sgm::util::Rng rng(13);
  const Matrix a = random_matrix(5, 4, rng);
  const Matrix b = random_matrix(5, 4, rng);
  const Matrix w0 = random_matrix(4, 3, rng);
  const Matrix w1 = random_matrix(4, 3, rng);
  Tape t;
  const VarId av = t.parameter(a);
  const VarId bv = t.parameter(b);
  const VarId w = t.constant(w0);
  const VarId root = ops::sum_all(
      t, ops::square(t, ops::add(t, ops::matmul(t, av, w),
                                 ops::matmul(t, bv, w))));
  const Matrix two_s = 2.0 * (ops::matmul(a, w0) + ops::matmul(b, w0));

  for (const Matrix* wv : {&w0, &w1}) {
    t.mutable_value(w) = *wv;
    t.backward(root);
    const Matrix expected = ops::matmul_nt(two_s, *wv);
    EXPECT_LT((t.grad(av) - expected).max_abs(), 1e-12);
    EXPECT_LT((t.grad(bv) - expected).max_abs(), 1e-12);
  }
}

// -------------------------------------------------------------- fused ops --

TEST(FusedOps, AffineMatchesMatmulAddRowvec) {
  sgm::util::Rng rng(2);
  for (auto [n, k, d] : {std::array<std::size_t, 3>{5, 3, 4},
                         std::array<std::size_t, 3>{1, 1, 1},
                         std::array<std::size_t, 3>{17, 9, 13}}) {
    const Matrix a = random_matrix(n, k, rng);
    const Matrix w = random_matrix(k, d, rng);
    const Matrix b = random_matrix(1, d, rng);
    Tape t;
    VarId av = t.constant(a);
    VarId wv = t.parameter(w);
    VarId bv = t.parameter(b);
    VarId fused = ops::affine(t, av, wv, bv);
    VarId unfused = ops::add_rowvec(t, ops::matmul(t, av, wv), bv);
    EXPECT_LT((t.value(fused) - t.value(unfused)).max_abs(), 1e-12)
        << n << "x" << k << "x" << d;
  }
}

TEST(FusedOps, AffineGradcheck) {
  sgm::util::Rng rng(3);
  const Matrix a = random_matrix(6, 3, rng);
  const Matrix w0 = random_matrix(3, 4, rng);
  const Matrix b0 = random_matrix(1, 4, rng);

  auto loss_of = [&](const Matrix& w, const Matrix& b) {
    Tape t;
    VarId av = t.constant(a);
    VarId y = ops::affine(t, av, t.parameter(w), t.parameter(b));
    return t.value(ops::mean_all(t, ops::square(t, y)))(0, 0);
  };

  Tape t;
  VarId av = t.constant(a);
  VarId wv = t.parameter(w0);
  VarId bv = t.parameter(b0);
  t.backward(ops::mean_all(t, ops::square(t, ops::affine(t, av, wv, bv))));

  const double h = 1e-6;
  for (std::size_t i = 0; i < w0.size(); ++i) {
    Matrix wp = w0, wm = w0;
    wp.data()[i] += h;
    wm.data()[i] -= h;
    const double numeric = (loss_of(wp, b0) - loss_of(wm, b0)) / (2 * h);
    EXPECT_NEAR(t.grad(wv).data()[i], numeric, 1e-6) << "w entry " << i;
  }
  for (std::size_t i = 0; i < b0.size(); ++i) {
    Matrix bp = b0, bm = b0;
    bp.data()[i] += h;
    bm.data()[i] -= h;
    const double numeric = (loss_of(w0, bp) - loss_of(w0, bm)) / (2 * h);
    EXPECT_NEAR(t.grad(bv).data()[i], numeric, 1e-6) << "b entry " << i;
  }
}

TEST(FusedOps, ActivationSweepMatchesApplyLadder) {
  sgm::util::Rng rng(4);
  const Matrix z = random_matrix(7, 5, rng);
  for (const sgm::nn::Activation* act :
       {&sgm::nn::silu(), &sgm::nn::tanh_act(), &sgm::nn::sigmoid_act()}) {
    Tape t;
    VarId zv = t.constant(z);
    VarId s = ops::activation(t, zv, *act, /*orders=*/3);
    EXPECT_LT((t.value(s) - t.value(ops::apply(t, zv, *act, 0))).max_abs(),
              1e-12)
        << act->name();
    // The sweep's aux buffers are exercised through act_chain /
    // act_laplacian.
    const Matrix z0 = random_matrix(7, 5, rng);
    const Matrix z1 = random_matrix(7, 5, rng);
    const Matrix lz = random_matrix(7, 5, rng);
    const VarId zks[2] = {t.constant(z0), t.constant(z1)};
    VarId lzv = t.constant(lz);
    VarId chain = ops::act_chain(t, s, zks[0]);
    VarId ref_chain = ops::mul(t, ops::apply(t, zv, *act, 1), zks[0]);
    EXPECT_LT((t.value(chain) - t.value(ref_chain)).max_abs(), 1e-12)
        << act->name();
    VarId lap = ops::act_laplacian(t, s, zks, lzv);
    const VarId s2 = ops::apply(t, zv, *act, 2);
    VarId ref_lap = ops::add(
        t,
        ops::add(t, ops::mul(t, s2, ops::square(t, zks[0])),
                 ops::mul(t, s2, ops::square(t, zks[1]))),
        ops::mul(t, ops::apply(t, zv, *act, 1), lzv));
    EXPECT_LT((t.value(lap) - t.value(ref_lap)).max_abs(), 1e-12)
        << act->name();
  }
}

TEST(FusedOps, ActChainAndLaplacianGradcheck) {
  // End-to-end gradient of a loss built from the fused derivative-
  // propagation ops, checked against the unfused composition's gradient,
  // for 1 to 3 Jacobian inputs of the Laplacian node. Every input is a
  // parameter so all of its gradients are compared.
  const auto& act = sgm::nn::silu();
  for (std::size_t n = 1; n <= 3; ++n) {
    sgm::util::Rng rng(5);
    const Matrix z0 = random_matrix(4, 3, rng);
    std::vector<Matrix> zk;
    for (std::size_t k = 0; k < n; ++k) zk.push_back(random_matrix(4, 3, rng));
    const Matrix lz = random_matrix(4, 3, rng);

    Tape tf;
    VarId zf = tf.parameter(z0);
    std::vector<VarId> zkf;
    for (const Matrix& m : zk) zkf.push_back(tf.parameter(m));
    VarId lzf = tf.parameter(lz);
    VarId sf = ops::activation(tf, zf, act, 3);
    VarId rootf = ops::mean_all(
        tf, ops::square(tf, ops::add(tf, ops::act_chain(tf, sf, zkf[0]),
                                     ops::act_laplacian(tf, sf, zkf, lzf))));
    tf.backward(rootf);

    Tape tu;
    VarId zu = tu.parameter(z0);
    std::vector<VarId> zku;
    for (const Matrix& m : zk) zku.push_back(tu.parameter(m));
    VarId lzu = tu.parameter(lz);
    VarId s1 = ops::apply(tu, zu, act, 1);
    VarId s2 = ops::apply(tu, zu, act, 2);
    VarId chain = ops::mul(tu, s1, zku[0]);
    VarId lap = ops::mul(tu, s1, lzu);
    for (VarId z : zku)
      lap = ops::add(tu, lap, ops::mul(tu, s2, ops::square(tu, z)));
    VarId rootu = ops::mean_all(tu, ops::square(tu, ops::add(tu, chain, lap)));
    tu.backward(rootu);

    EXPECT_LT((tf.value(rootf) - tu.value(rootu)).max_abs(), 1e-12) << n;
    EXPECT_LT((tf.grad(zf) - tu.grad(zu)).max_abs(), 1e-10) << n;
    EXPECT_LT((tf.grad(lzf) - tu.grad(lzu)).max_abs(), 1e-10) << n;
    for (std::size_t k = 0; k < n; ++k)
      EXPECT_LT((tf.grad(zkf[k]) - tu.grad(zku[k])).max_abs(), 1e-10)
          << n << " z_" << k;
  }
}

TEST(FusedOps, SingleDimLaplacianIsTheCurveFormulaBitwise) {
  // With one Jacobian input the Laplacian node is the per-dimension
  // Hessian-diagonal update f''(z) z0^2 + f'(z) lz, bit for bit in value
  // and in all three input gradients: the reference below is that formula
  // written out by hand. Burgers (n_lap = 1) keeps its bits through it.
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  sgm::util::Rng rng(17);
  const Matrix z = random_matrix(9, 7, rng, 2.0);
  const Matrix z0 = random_matrix(9, 7, rng);
  const Matrix lz = random_matrix(9, 7, rng);
  const Matrix c = random_matrix(9, 7, rng);
  const auto& act = sgm::nn::silu();

  Tape t;
  const VarId zv = t.parameter(z);
  const VarId z0v = t.parameter(z0);
  const VarId lzv = t.parameter(lz);
  const VarId s = ops::activation(t, zv, act, 3);
  const VarId lap = ops::act_laplacian(t, s, std::span(&z0v, 1), lzv);
  // Upstream gradient of lap is exactly c.
  t.backward(ops::sum_all(t, ops::mul(t, lap, t.constant(c))));

  for (std::size_t i = 0; i < z.size(); ++i) {
    const double x = z.data()[i], zk = z0.data()[i], h = lz.data()[i];
    const double g = c.data()[i];
    const double s1 = act.eval(x, 1), s2 = act.eval(x, 2),
                 s3 = act.eval(x, 3);
    EXPECT_EQ(bits(t.value(lap).data()[i]), bits(s2 * zk * zk + s1 * h))
        << i;
    EXPECT_EQ(bits(t.grad(zv).data()[i]),
              bits(g * (s3 * zk * zk + s2 * h) + 0.0))
        << i;
    EXPECT_EQ(bits(t.grad(z0v).data()[i]), bits(2.0 * g * s2 * zk + 0.0))
        << i;
    EXPECT_EQ(bits(t.grad(lzv).data()[i]), bits(g * s1 + 0.0)) << i;
  }
}

// ---------------------------------------------------------- GEMM property --

TEST(BlockedGemm, MatchesReferenceOverShapes) {
  sgm::util::Rng rng(6);
  // Random shapes around the block sizes plus degenerate cases: empty
  // matrices, single elements, and non-multiples of the 4x8 tile.
  const std::size_t dims[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 33};
  for (std::size_t m : dims) {
    for (std::size_t k : {std::size_t{1}, std::size_t{5}, std::size_t{32}}) {
      for (std::size_t n : dims) {
        const Matrix a = random_matrix(m ? m : 0, k, rng);
        const Matrix b = random_matrix(k, n, rng);
        const Matrix blocked = sgm::tensor::matmul(a, b);
        const Matrix reference = sgm::tensor::matmul_reference(a, b);
        ASSERT_EQ(blocked.rows(), m);
        ASSERT_EQ(blocked.cols(), n);
        if (m && n) {
          EXPECT_LT((blocked - reference).max_abs(),
                    1e-13 * (1.0 + reference.max_abs()))
              << m << "x" << k << "x" << n;
        }

        const Matrix at = random_matrix(k, m, rng);  // for A^T B
        EXPECT_LT((sgm::tensor::matmul_tn(at, b) -
                   sgm::tensor::matmul_tn_reference(at, b))
                      .max_abs(),
                  1e-12)
            << "tn " << m << "x" << k << "x" << n;

        const Matrix bt = random_matrix(n, k, rng);  // for A B^T
        EXPECT_LT((sgm::tensor::matmul_nt(a, bt) -
                   sgm::tensor::matmul_nt_reference(a, bt))
                      .max_abs(),
                  1e-12)
            << "nt " << m << "x" << k << "x" << n;
      }
    }
  }
}

TEST(BlockedGemm, RangeKernelsAndAccumulate) {
  sgm::util::Rng rng(7);
  const Matrix a = random_matrix(21, 13, rng);
  const Matrix b = random_matrix(13, 11, rng);
  Matrix c(21, 11, 1.0);
  // Disjoint row ranges must tile exactly like a full-range call.
  sgm::tensor::gemm_nn(a, b, c, 0, 9, /*accumulate=*/false);
  sgm::tensor::gemm_nn(a, b, c, 9, 21, /*accumulate=*/false);
  EXPECT_LT((c - sgm::tensor::matmul_reference(a, b)).max_abs(), 1e-12);

  Matrix acc = c;
  sgm::tensor::gemm_nn(a, b, acc, 0, 21, /*accumulate=*/true);
  Matrix twice = sgm::tensor::matmul_reference(a, b);
  twice.scale(2.0);
  EXPECT_LT((acc - twice).max_abs(), 1e-12);
}

// --------------------------------------------------- thread invariance ----

TEST(ThreadedTape, ForwardBackwardBitwiseIdenticalAcrossThreadCounts) {
  MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.output_dim = 1;
  cfg.width = 32;
  cfg.depth = 3;
  sgm::util::Rng rng(11);
  Mlp net(cfg, rng);
  const Matrix x = random_matrix(257, 2, rng);  // odd size: exercises edges

  auto run = [&](std::size_t threads, Matrix* loss) {
    Tape tape;
    tape.set_num_threads(threads);
    Mlp::Binding binding;
    net.bind(tape, &binding);
    auto out = net.forward_on_tape(tape, binding, x, 2, 2);
    const VarId root = ops::mean_all(tape, ops::square(tape, out.lap));
    tape.backward(root);
    *loss = tape.value(root);
    return net.collect_grads(tape, binding);
  };

  Matrix loss1, loss4;
  const auto g1 = run(1, &loss1);
  const auto g4 = run(4, &loss4);
  ASSERT_EQ(g1.size(), g4.size());
  EXPECT_EQ(loss1(0, 0), loss4(0, 0)) << "loss not bitwise identical";
  for (std::size_t i = 0; i < g1.size(); ++i)
    for (std::size_t j = 0; j < g1[i].size(); ++j)
      ASSERT_EQ(g1[i].data()[j], g4[i].data()[j])
          << "grad " << i << " entry " << j << " differs across thread counts";
}

}  // namespace

// Unit tests for sgm::tensor — matrix algebra and the autodiff tape.
// Every differentiable op is gradient-checked against central finite
// differences; these checks underwrite the correctness of all PDE losses.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>

#include "nn/activation.hpp"
#include "tensor/gemm_dispatch.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "tensor/tape.hpp"
#include "util/rng.hpp"

namespace {

using sgm::tensor::Matrix;
using sgm::tensor::Tape;
using sgm::tensor::VarId;
namespace ops = sgm::tensor;

Matrix random_matrix(std::size_t r, std::size_t c, sgm::util::Rng& rng,
                     double scale = 1.0) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = rng.normal(0.0, scale);
  return m;
}

// ---------------------------------------------------------------- Matrix --

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(Matrix, InitializerListAndRagged) {
  Matrix m{{1, 2}, {3, 4}};
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_THROW((Matrix{{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, MatmulMatchesManual) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = sgm::tensor::matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(Matrix, MatmulShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(sgm::tensor::matmul(a, b), std::invalid_argument);
}

TEST(Matrix, TransposedProductsAgree) {
  sgm::util::Rng rng(3);
  Matrix a = random_matrix(4, 3, rng);
  Matrix b = random_matrix(4, 5, rng);
  Matrix tn = sgm::tensor::matmul_tn(a, b);  // A^T B
  Matrix ref = sgm::tensor::matmul(sgm::tensor::transpose(a), b);
  EXPECT_LT((tn - ref).max_abs(), 1e-12);

  Matrix c = random_matrix(6, 3, rng);
  Matrix d = random_matrix(5, 3, rng);
  Matrix nt = sgm::tensor::matmul_nt(c, d);  // C D^T
  Matrix ref2 = sgm::tensor::matmul(c, sgm::tensor::transpose(d));
  EXPECT_LT((nt - ref2).max_abs(), 1e-12);
}

TEST(Matrix, NormsAndReductions) {
  Matrix m{{3, 4}};
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
  EXPECT_DOUBLE_EQ(m.max_abs(), 4.0);
  EXPECT_DOUBLE_EQ(m.sum(), 7.0);
}

TEST(Matrix, AxpyAndScale) {
  Matrix a{{1, 2}};
  Matrix b{{10, 20}};
  a.axpy(0.5, b);
  EXPECT_DOUBLE_EQ(a(0, 0), 6.0);
  a.scale(2.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 24.0);
}

TEST(Matrix, HadamardAndIdentity) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix h = sgm::tensor::hadamard(a, a);
  EXPECT_DOUBLE_EQ(h(1, 1), 16.0);
  Matrix i = sgm::tensor::identity(3);
  EXPECT_DOUBLE_EQ(i(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
}

// ------------------------------------------------------------------ Tape --

TEST(Tape, BackwardRequiresScalarRoot) {
  Tape t;
  VarId a = t.parameter(Matrix(2, 2, 1.0));
  EXPECT_THROW(t.backward(a), std::invalid_argument);
}

TEST(Tape, ConstantGetsNoGrad) {
  Tape t;
  VarId c = t.constant(Matrix(1, 1, 3.0));
  VarId p = t.parameter(Matrix(1, 1, 2.0));
  VarId s = ops::mul(t, c, p);
  t.backward(s);
  EXPECT_TRUE(t.grad(c).empty());
  EXPECT_DOUBLE_EQ(t.grad(p)(0, 0), 3.0);
}

TEST(Tape, GradAccumulatesAcrossUses) {
  Tape t;
  VarId p = t.parameter(Matrix(1, 1, 3.0));
  VarId s = ops::add(t, p, p);  // d(2p)/dp = 2
  t.backward(s);
  EXPECT_DOUBLE_EQ(t.grad(p)(0, 0), 2.0);
}

TEST(Tape, ClearResets) {
  Tape t;
  t.parameter(Matrix(1, 1, 1.0));
  EXPECT_EQ(t.num_nodes(), 1u);
  t.clear();
  EXPECT_EQ(t.num_nodes(), 0u);
}

// ------------------------------------------------------- Gradient checks --

// Central-difference gradient check: `build` records ops on the tape and
// returns the scalar root; the check compares the analytic gradient of the
// parameter leaf against finite differences, one entry at a time.
void gradcheck_root(
    const std::function<VarId(Tape&, VarId)>& build, const Matrix& param0,
    double tol = 2e-6, double h = 1e-5) {
  Tape t;
  VarId p = t.parameter(param0);
  VarId root = build(t, p);
  t.backward(root);
  const Matrix analytic = t.grad(p);
  ASSERT_FALSE(analytic.empty());

  for (std::size_t i = 0; i < param0.size(); ++i) {
    Matrix plus = param0, minus = param0;
    plus.data()[i] += h;
    minus.data()[i] -= h;
    Tape tp;
    VarId pp = tp.parameter(plus);
    const double fp = tp.value(build(tp, pp))(0, 0);
    Tape tm;
    VarId pm = tm.parameter(minus);
    const double fm = tm.value(build(tm, pm))(0, 0);
    const double numeric = (fp - fm) / (2 * h);
    EXPECT_NEAR(analytic.data()[i], numeric, tol)
        << "entry " << i << " of " << param0.size();
  }
}

TEST(Gradcheck, AddSubScale) {
  sgm::util::Rng rng(1);
  const Matrix x0 = random_matrix(3, 2, rng);
  gradcheck_root(
      [&](Tape& t, VarId p) {
        VarId c = t.constant(Matrix(3, 2, 0.7));
        VarId a = ops::add(t, p, c);
        VarId b = ops::sub(t, a, p);  // also exercises sub's -1 path
        VarId d = ops::scale(t, ops::add(t, a, b), 0.3);
        return ops::sum_all(t, d);
      },
      x0);
}

TEST(Gradcheck, MulSquare) {
  sgm::util::Rng rng(2);
  const Matrix x0 = random_matrix(2, 3, rng);
  gradcheck_root(
      [&](Tape& t, VarId p) {
        VarId sq = ops::square(t, p);
        VarId m = ops::mul(t, sq, p);  // p^3 elementwise
        return ops::mean_all(t, m);
      },
      x0);
}

TEST(Gradcheck, MatmulBothSides) {
  sgm::util::Rng rng(3);
  const Matrix w0 = random_matrix(3, 4, rng);
  const Matrix x = random_matrix(5, 3, rng);
  gradcheck_root(
      [&](Tape& t, VarId p) {
        VarId xc = t.constant(x);
        VarId y = ops::matmul(t, xc, p);
        return ops::mean_all(t, ops::square(t, y));
      },
      w0);
  // And gradients w.r.t. the left operand.
  const Matrix a0 = random_matrix(2, 3, rng);
  const Matrix b = random_matrix(3, 4, rng);
  gradcheck_root(
      [&](Tape& t, VarId p) {
        VarId bc = t.constant(b);
        return ops::sum_all(t, ops::square(t, ops::matmul(t, p, bc)));
      },
      a0);
}

TEST(Gradcheck, AddRowvecBias) {
  sgm::util::Rng rng(4);
  const Matrix b0 = random_matrix(1, 4, rng);
  const Matrix x = random_matrix(6, 4, rng);
  gradcheck_root(
      [&](Tape& t, VarId p) {
        VarId xc = t.constant(x);
        return ops::mean_all(t, ops::square(t, ops::add_rowvec(t, xc, p)));
      },
      b0);
}

TEST(Gradcheck, ApplyActivationOrders) {
  sgm::util::Rng rng(5);
  const Matrix x0 = random_matrix(4, 2, rng);
  for (int order = 0; order <= 2; ++order) {
    gradcheck_root(
        [order](Tape& t, VarId p) {
          return ops::mean_all(
              t, ops::apply(t, p, sgm::nn::silu(), order));
        },
        x0, 5e-6);
  }
}

TEST(Gradcheck, ColAndHcat) {
  sgm::util::Rng rng(6);
  const Matrix x0 = random_matrix(4, 3, rng);
  gradcheck_root(
      [&](Tape& t, VarId p) {
        VarId c0 = ops::col(t, p, 0);
        VarId c2 = ops::col(t, p, 2);
        VarId cat = ops::hcat(t, c0, c2);
        return ops::sum_all(t, ops::square(t, cat));
      },
      x0);
}

TEST(Gradcheck, WeightedMeanAndAddScalar) {
  sgm::util::Rng rng(7);
  const Matrix x0 = random_matrix(5, 1, rng);
  Matrix w(5, 1);
  for (int i = 0; i < 5; ++i) w(i, 0) = 0.2 * (i + 1);
  gradcheck_root(
      [&](Tape& t, VarId p) {
        VarId shifted = ops::add_scalar(t, p, 0.3);
        return ops::weighted_mean(t, ops::square(t, shifted), w);
      },
      x0);
}

TEST(Gradcheck, DeepCompositeChain) {
  // A chain resembling one PINN residual: matmul -> act -> matmul -> square
  // -> mean, checked end to end.
  sgm::util::Rng rng(8);
  const Matrix w0 = random_matrix(3, 3, rng, 0.5);
  const Matrix x = random_matrix(4, 3, rng);
  gradcheck_root(
      [&](Tape& t, VarId p) {
        VarId xc = t.constant(x);
        VarId h1 = ops::apply(t, ops::matmul(t, xc, p), sgm::nn::tanh_act(), 0);
        VarId h2 = ops::matmul(t, h1, p);
        VarId s1 = ops::apply(t, h2, sgm::nn::silu(), 1);
        return ops::mean_all(t, ops::square(t, s1));
      },
      w0, 5e-6);
}

TEST(Ops, ValueCorrectness) {
  Tape t;
  VarId a = t.constant(Matrix{{1, 2}, {3, 4}});
  EXPECT_DOUBLE_EQ(t.value(ops::mean_all(t, a))(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(t.value(ops::sum_all(t, a))(0, 0), 10.0);
  VarId c1 = ops::col(t, a, 1);
  EXPECT_DOUBLE_EQ(t.value(c1)(1, 0), 4.0);
  VarId sq = ops::square(t, a);
  EXPECT_DOUBLE_EQ(t.value(sq)(1, 1), 16.0);
  VarId sc = ops::add_scalar(t, a, 1.0);
  EXPECT_DOUBLE_EQ(t.value(sc)(0, 0), 2.0);
}

TEST(Ops, ShapeErrorsThrow) {
  Tape t;
  VarId a = t.constant(Matrix(2, 2));
  VarId b = t.constant(Matrix(2, 3));
  EXPECT_THROW(ops::add(t, a, b), std::invalid_argument);
  EXPECT_THROW(ops::mul(t, a, b), std::invalid_argument);
  EXPECT_THROW(ops::col(t, a, 5), std::out_of_range);
  VarId rv = t.constant(Matrix(1, 3));
  EXPECT_THROW(ops::add_rowvec(t, a, rv), std::invalid_argument);
}

// ------------------------------------------------- FP contraction guard --
// The GEMM determinism contract (gemm_kernels.inl) requires every path —
// tile loops, row edges, column edges, AVX2 and generic builds of the same
// source — to apply ONE rounding regime uniformly. The kernel TUs are
// compiled with -ffp-contract=off, but gcc 12 still emits FMA for these
// reduction loops when -mfma is enabled (vfmadd231sd in the scalar edge
// loops and vfmadd231pd in the tile loops of the AVX2 TU), while clang
// honors the flag and rounds mul and add separately. Both regimes are
// deterministic; what breaks bitwise batched≡single inference is a MIX —
// e.g. a vectorized body that contracts while its scalar epilogue does not,
// the exact bug class PR 6 fixed by hand. These tests therefore pin, with
// bitwise comparisons, that (a) the edge path matches either the
// separate-rounding chain or the std::fma chain for EVERY element — never a
// blend — and (b) tile and edge paths agree bitwise. This TU is itself
// built with -ffp-contract=off (CMakeLists) so the `plain` reference loop
// below rounds each step separately.

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// C = A * B (nn) or C = A^T * B (tn) over all of C's rows.
void gemm_all(bool tn, const Matrix& a, const Matrix& b, Matrix& c,
              bool accumulate) {
  if (tn)
    sgm::tensor::gemm_tn(a, b, c, 0, c.rows(), accumulate);
  else
    sgm::tensor::gemm_nn(a, b, c, 0, c.rows(), accumulate);
}

// An accumulate=false store must equal 0.0 + x into a zeroed C, and an
// accumulate=true call into c0 must equal c0 + x, element by element.
void expect_stores_pinned(bool tn, const Matrix& a, const Matrix& b,
                          const Matrix& stored, sgm::util::Rng& rng) {
  Matrix zeroed(stored.rows(), stored.cols());
  gemm_all(tn, a, b, zeroed, /*accumulate=*/true);
  const Matrix c0 = random_matrix(stored.rows(), stored.cols(), rng);
  Matrix acc = c0;
  gemm_all(tn, a, b, acc, /*accumulate=*/true);
  for (std::size_t i = 0; i < stored.rows(); ++i)
    for (std::size_t j = 0; j < stored.cols(); ++j) {
      EXPECT_TRUE(bits_equal(stored(i, j), zeroed(i, j)))
          << (tn ? "tn" : "nn") << " " << stored.rows() << "x"
          << stored.cols() << " (" << i << ", " << j
          << "): accumulate=false differs from 0.0 + x";
      EXPECT_TRUE(bits_equal(acc(i, j), c0(i, j) + stored(i, j)))
          << (tn ? "tn" : "nn") << " " << stored.rows() << "x"
          << stored.cols() << " (" << i << ", " << j
          << "): accumulate=true differs from c0 + x";
    }
}

TEST(GemmContraction, RowEdgeRoundingIsUniformAndPinned) {
  // A C with 1-3 rows runs entirely in the row-edge path, and widths 1-7
  // and 9-15 add the column edge (alone, and beside a full 8-wide tile),
  // whichever kernel build dispatch selected; for C = A * B and
  // C = A^T * B.
  constexpr std::size_t kK = 64;
  sgm::util::Rng rng(17);
  bool some_element_is_fma_sensitive = false;
  bool all_plain = true, all_fused = true;
  for (const bool tn : {false, true}) {
    for (std::size_t rows = 1; rows <= 3; ++rows) {
      for (std::size_t n = 1; n <= 15; ++n) {
        if (n == 8) continue;
        const Matrix a =
            tn ? random_matrix(kK, rows, rng) : random_matrix(rows, kK, rng);
        const Matrix b = random_matrix(kK, n, rng);
        Matrix c(rows, n);
        gemm_all(tn, a, b, c, /*accumulate=*/false);
        for (std::size_t i = 0; i < rows; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            double plain = 0.0;  // separate rounding: mul, then add
            double fused = 0.0;  // contracted: one rounding per std::fma
            for (std::size_t p = 0; p < kK; ++p) {
              const double av = tn ? a(p, i) : a(i, p);
              const double prod = av * b(p, j);
              plain += prod;
              fused = std::fma(av, b(p, j), fused);
            }
            if (!bits_equal(plain, fused)) some_element_is_fma_sensitive = true;
            if (!bits_equal(c(i, j), plain)) all_plain = false;
            if (!bits_equal(c(i, j), fused)) all_fused = false;
          }
        }
        expect_stores_pinned(tn, a, b, c, rng);
      }
    }
  }
  // The inputs must actually distinguish the two roundings, or the check
  // below proves nothing.
  ASSERT_TRUE(some_element_is_fma_sensitive);
  // One regime, uniformly: every element matches the separate-rounding
  // reference, or every element matches the std::fma chain bitwise. A blend
  // means the compiler contracted only part of an edge path, or an edge
  // rounds unlike the others: the determinism contract is broken.
  EXPECT_TRUE(all_plain || all_fused)
      << "edge paths mix contracted and separate rounding "
      << "(gemm_avx2_active=" << sgm::tensor::gemm_avx2_active() << ")";
  // The two regimes disagree on at least one element, so exactly one holds.
  EXPECT_NE(all_plain, all_fused);
  // The AVX2 build fuses every step, in its tiles and its masked edges.
  if (sgm::tensor::gemm_avx2_active()) {
    EXPECT_TRUE(all_fused);
  }
}

TEST(GemmContraction, TileAndEdgePathsAgreeBitwise) {
  // 5-7 identical rows of C: rows 0-3 run through the register-blocked tile
  // path, the 1-3 left over through the row edge; widths 1-15 put columns
  // in full 8-wide tiles and in the column edge. Every row must equal the
  // same row computed alone (a 1-row C is all row edge). Any rounding
  // difference between paths breaks the bitwise equality. For C = A^T * B
  // the identical rows of C are identical columns of A.
  constexpr std::size_t kK = 37;
  sgm::util::Rng rng(23);
  for (const bool tn : {false, true}) {
    for (std::size_t rows = 5; rows <= 7; ++rows) {
      for (std::size_t n = 1; n <= 15; ++n) {
        const Matrix line = random_matrix(1, kK, rng);
        const Matrix b = random_matrix(kK, n, rng);
        Matrix a = tn ? Matrix(kK, rows) : Matrix(rows, kK);
        for (std::size_t i = 0; i < rows; ++i)
          for (std::size_t p = 0; p < kK; ++p)
            (tn ? a(p, i) : a(i, p)) = line(0, p);
        const Matrix single_a = tn ? sgm::tensor::transpose(line) : line;

        Matrix c(rows, n), c_single(1, n);
        gemm_all(tn, a, b, c, /*accumulate=*/false);
        gemm_all(tn, single_a, b, c_single, /*accumulate=*/false);
        for (std::size_t i = 0; i < rows; ++i)
          for (std::size_t j = 0; j < n; ++j)
            EXPECT_TRUE(bits_equal(c(i, j), c_single(0, j)))
                << (tn ? "tn" : "nn") << " " << rows << "x" << n << " row "
                << i << " col " << j
                << " rounds differently from the single-row edge path";
        expect_stores_pinned(tn, a, b, c, rng);
      }
    }
  }
}

TEST(GemmContraction, Avx2DispatchConsistent) {
  if (!sgm::tensor::gemm_avx2_compiled()) {
    EXPECT_FALSE(sgm::tensor::gemm_avx2_active());
  }
}

}  // namespace

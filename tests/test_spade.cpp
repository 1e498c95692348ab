// Tests for the SPADE / ISR stability metric (S3): generalized eigenvalue
// sanity on constructed input/output graph pairs, agreement with a dense
// generalized-eigenproblem reference, input validation and localization of
// node scores at unstable regions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/knn.hpp"
#include "graph/lanczos.hpp"
#include "graph/laplacian.hpp"
#include "spade/isr.hpp"
#include "util/rng.hpp"

namespace {

using sgm::graph::CsrGraph;
using sgm::spade::IsrOptions;
using sgm::spade::IsrResult;
using sgm::tensor::Matrix;

Matrix line_points(std::size_t n) {
  Matrix pts(n, 1);
  for (std::size_t i = 0; i < n; ++i)
    pts(i, 0) = static_cast<double>(i) / static_cast<double>(n - 1);
  return pts;
}

TEST(Isr, IdentityMapHasUnitEigenvalues) {
  // Y = X => L_Y == L_X => generalized eigenvalues ~ 1 (up to the shift).
  const std::size_t n = 60;
  const Matrix x = line_points(n);
  sgm::graph::KnnGraphOptions kopt;
  kopt.k = 4;
  const CsrGraph gx = sgm::graph::build_knn_graph(x, kopt);
  IsrOptions opt;
  opt.rank = 4;
  opt.subspace_iterations = 8;
  opt.y_knn.k = 4;
  const IsrResult r = sgm::spade::compute_isr(gx, x, opt);
  ASSERT_FALSE(r.eigenvalues.empty());
  for (double ev : r.eigenvalues) EXPECT_NEAR(ev, 1.0, 0.25);
}

TEST(Isr, UniformScalingScalesIsrMax) {
  // Y = 2X halves the inverse-distance output weights, so L_Y = L_X / 2 and
  // the pencil's eigenvalues all become ~2.
  const std::size_t n = 60;
  const Matrix x = line_points(n);
  Matrix y = x;
  y.scale(2.0);
  sgm::graph::KnnGraphOptions kopt;
  kopt.k = 4;
  const CsrGraph gx = sgm::graph::build_knn_graph(x, kopt);
  IsrOptions opt;
  opt.rank = 4;
  opt.subspace_iterations = 8;
  opt.y_knn.k = 4;
  const IsrResult r = sgm::spade::compute_isr(gx, y, opt);
  EXPECT_NEAR(r.isr_max(), 2.0, 0.5);
}

TEST(Isr, ScoresLocalizeAtSteepRegion) {
  // Map: identity on [0, 0.5], steep x20 slope on (0.5, 1]. Node scores in
  // the steep half must dominate those in the flat half.
  const std::size_t n = 120;
  const Matrix x = line_points(n);
  Matrix y(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = x(i, 0);
    y(i, 0) = v <= 0.5 ? v : 0.5 + 20.0 * (v - 0.5);
  }
  sgm::graph::KnnGraphOptions kopt;
  kopt.k = 4;
  const CsrGraph gx = sgm::graph::build_knn_graph(x, kopt);
  IsrOptions opt;
  opt.rank = 6;
  opt.subspace_iterations = 10;
  opt.y_knn.k = 4;
  const IsrResult r = sgm::spade::compute_isr(gx, y, opt);

  double steep = 0, flat = 0;
  std::size_t steep_n = 0, flat_n = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (x(i, 0) > 0.55) {
      steep += r.node_score[i];
      ++steep_n;
    } else if (x(i, 0) < 0.45) {
      flat += r.node_score[i];
      ++flat_n;
    }
  }
  steep /= steep_n;
  flat /= flat_n;
  EXPECT_GT(steep, 2.0 * flat)
      << "steep mean " << steep << " flat mean " << flat;
}

TEST(Isr, EdgeScoreSymmetricNonNegative) {
  const std::size_t n = 40;
  sgm::util::Rng rng(3);
  Matrix x(n, 2);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.uniform();
  Matrix y(n, 1);
  for (std::size_t i = 0; i < n; ++i) y(i, 0) = std::sin(5 * x(i, 0));
  sgm::graph::KnnGraphOptions kopt;
  kopt.k = 5;
  const CsrGraph gx = sgm::graph::build_knn_graph(x, kopt);
  IsrOptions opt;
  opt.rank = 4;
  const IsrResult r = sgm::spade::compute_isr(gx, y, opt);
  for (sgm::graph::NodeId p = 0; p < 10; ++p) {
    for (sgm::graph::NodeId q = 0; q < 10; ++q) {
      const double spq = sgm::spade::isr_edge_score(r, p, q);
      EXPECT_GE(spq, 0.0);
      EXPECT_NEAR(spq, sgm::spade::isr_edge_score(r, q, p), 1e-12);
    }
  }
}

TEST(Isr, NodeScoresMatchNeighborAverageDefinition) {
  const std::size_t n = 30;
  const Matrix x = line_points(n);
  Matrix y(n, 1);
  for (std::size_t i = 0; i < n; ++i) y(i, 0) = x(i, 0) * x(i, 0);
  sgm::graph::KnnGraphOptions kopt;
  kopt.k = 3;
  const CsrGraph gx = sgm::graph::build_knn_graph(x, kopt);
  IsrOptions opt;
  opt.rank = 3;
  const IsrResult r = sgm::spade::compute_isr(gx, y, opt);
  for (sgm::graph::NodeId p = 0; p < n; ++p) {
    const auto nbrs = gx.neighbors(p);
    double mean = 0;
    for (auto q : nbrs) mean += sgm::spade::isr_edge_score(r, p, q);
    mean /= static_cast<double>(nbrs.size());
    EXPECT_NEAR(r.node_score[p], mean, 1e-12);
  }
}

TEST(Isr, MismatchedGraphSizesThrow) {
  const Matrix x = line_points(10);
  sgm::graph::KnnGraphOptions kopt;
  kopt.k = 2;
  const CsrGraph gx = sgm::graph::build_knn_graph(x, kopt);
  const Matrix y = line_points(8);
  EXPECT_THROW(sgm::spade::compute_isr(gx, y, {}), std::invalid_argument);
}

TEST(Isr, DeterministicForFixedSeed) {
  const std::size_t n = 50;
  const Matrix x = line_points(n);
  Matrix y(n, 1);
  for (std::size_t i = 0; i < n; ++i) y(i, 0) = std::cos(3 * x(i, 0));
  sgm::graph::KnnGraphOptions kopt;
  kopt.k = 4;
  const CsrGraph gx = sgm::graph::build_knn_graph(x, kopt);
  IsrOptions opt;
  opt.seed = 1234;
  const IsrResult a = sgm::spade::compute_isr(gx, y, opt);
  const IsrResult b = sgm::spade::compute_isr(gx, y, opt);
  ASSERT_EQ(a.node_score.size(), b.node_score.size());
  for (std::size_t i = 0; i < a.node_score.size(); ++i)
    EXPECT_DOUBLE_EQ(a.node_score[i], b.node_score[i]);
}

/// Top-r eigenvalues (descending) of L_X v = l (L_Y + s I) v, densely:
/// with L_Y + s I = C C^T, they are the eigenvalues of C^-1 L_X C^-T.
std::vector<double> dense_generalized_top(const CsrGraph& gx,
                                          const CsrGraph& gy, double s,
                                          std::size_t r) {
  const std::size_t n = gx.num_nodes();
  Matrix b = sgm::graph::laplacian_dense(gy);
  for (std::size_t i = 0; i < n; ++i) b(i, i) += s;
  Matrix c(n, n);  // lower Cholesky factor of b
  for (std::size_t j = 0; j < n; ++j) {
    double d = b(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= c(j, k) * c(j, k);
    c(j, j) = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = b(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= c(i, k) * c(j, k);
      c(i, j) = v / c(j, j);
    }
  }
  // Forward-substitutes every column of `rhs` through C in place.
  auto lower_solve = [&c, n](Matrix& rhs) {
    for (std::size_t col = 0; col < n; ++col)
      for (std::size_t i = 0; i < n; ++i) {
        double v = rhs(i, col);
        for (std::size_t k = 0; k < i; ++k) v -= c(i, k) * rhs(k, col);
        rhs(i, col) = v / c(i, i);
      }
  };
  Matrix w = sgm::graph::laplacian_dense(gx);
  lower_solve(w);  // W = C^-1 L_X
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m(i, j) = w(j, i);
  lower_solve(m);  // M = C^-1 W^T = C^-1 L_X C^-T
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      const double avg = 0.5 * (m(i, j) + m(j, i));
      m(i, j) = avg;
      m(j, i) = avg;
    }
  const sgm::graph::EigenPairs ep = sgm::graph::jacobi_eigensymm(m);
  return {ep.values.rbegin(), ep.values.rbegin() + static_cast<long>(r)};
}

TEST(Isr, EigenvaluesMatchDenseGeneralizedReference) {
  // A small 2-D input cloud and a nonlinear scalar output: compute_isr's
  // subspace iteration, run to convergence on the exactly solved pencil,
  // must reproduce the dense reference.
  const std::size_t n = 48;
  sgm::util::Rng rng(21);
  Matrix x(n, 2);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.uniform();
  Matrix y(n, 1);
  for (std::size_t i = 0; i < n; ++i)
    y(i, 0) = std::sin(4.0 * x(i, 0)) + x(i, 1) * x(i, 1);
  sgm::graph::KnnGraphOptions kopt;
  kopt.k = 5;
  const CsrGraph gx = sgm::graph::build_knn_graph(x, kopt);
  IsrOptions opt;
  opt.rank = 3;
  opt.subspace_iterations = 400;
  opt.y_knn.k = 5;
  const CsrGraph gy = sgm::graph::build_knn_graph(y, opt.y_knn);
  const IsrResult r = sgm::spade::compute_isr(gx, y, opt);

  double mean_deg = 0.0;
  for (sgm::graph::NodeId u = 0; u < n; ++u) mean_deg += gy.weighted_degree(u);
  mean_deg /= static_cast<double>(n);
  const std::vector<double> ref =
      dense_generalized_top(gx, gy, opt.shift * mean_deg, 3);
  ASSERT_EQ(r.eigenvalues.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_NEAR(r.eigenvalues[i], ref[i], 1e-8 * std::max(1.0, ref[i]))
        << "eigenvalue " << i;
}

TEST(Isr, RejectsNonFiniteOutputs) {
  const Matrix x = line_points(20);
  sgm::graph::KnnGraphOptions kopt;
  kopt.k = 3;
  const CsrGraph gx = sgm::graph::build_knn_graph(x, kopt);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Matrix y = x;
    y(7, 0) = bad;
    EXPECT_THROW(sgm::spade::compute_isr(gx, y, {}), std::invalid_argument)
        << bad;
  }
}

TEST(Isr, RejectsRankOrIterationsBelowOne) {
  const Matrix x = line_points(20);
  sgm::graph::KnnGraphOptions kopt;
  kopt.k = 3;
  const CsrGraph gx = sgm::graph::build_knn_graph(x, kopt);
  IsrOptions opt;
  opt.rank = 0;
  EXPECT_THROW(sgm::spade::compute_isr(gx, x, opt), std::invalid_argument);
  opt.rank = -2;
  EXPECT_THROW(sgm::spade::compute_isr(gx, x, opt), std::invalid_argument);
  opt = IsrOptions{};
  // Zero iterations used to return all-zero scores without complaint.
  opt.subspace_iterations = 0;
  EXPECT_THROW(sgm::spade::compute_isr(gx, x, opt), std::invalid_argument);
  EXPECT_THROW(sgm::spade::compute_isr_graphs(gx, gx, opt),
               std::invalid_argument);
}

TEST(Isr, RejectsShiftThatIsNotFiniteAndPositive) {
  const Matrix x = line_points(20);
  sgm::graph::KnnGraphOptions kopt;
  kopt.k = 3;
  const CsrGraph gx = sgm::graph::build_knn_graph(x, kopt);
  for (double bad : {0.0, -1e-4, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    IsrOptions opt;
    opt.shift = bad;
    EXPECT_THROW(sgm::spade::compute_isr(gx, x, opt), std::invalid_argument)
        << bad;
  }
}

}  // namespace

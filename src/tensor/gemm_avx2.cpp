// AVX2+FMA build of the GEMM micro-kernels (see gemm_dispatch.hpp). CMake
// compiles this file with -mavx2 -mfma and defines SGM_GEMM_AVX2_BUILD on
// x86-64 gcc/clang; elsewhere the stubs at the bottom keep the link
// satisfied and the dispatcher never selects them.
//
// The kernels are written with intrinsics because the generic loop nest in
// gemm_kernels.inl defeats GCC's SLP vectorizer (scalar FMAs only). The
// 4 x 8 accumulator tile is 8 ymm registers. The edges are vector blocks
// of the same kind: the column edge (n % 8 columns) loads and stores its
// one or two partial vectors with _mm256_maskload_pd/_mm256_maskstore_pd,
// and the row edge (the 1-3 rows left over) is a shorter block. Every
// output element is one ymm lane, a chain of vfmadd from +0.0 in strictly
// ascending p, in every block, so an element's value never depends on
// whether its row or column landed in a full tile or an edge, nor on how
// the row range is split across threads. A 1-row matrix is all row edge;
// the same row inside a 33-row batch is tiled. The serving engine's
// batched == single equivalence tests (tests/test_serve.cpp) pin that both
// agree bitwise. Because a chain from +0.0 never yields -0.0, an
// accumulate=false store equals 0.0 + x into a zeroed C bit for bit (the
// tape's write-first gradients rely on it).

#include "tensor/gemm_dispatch.hpp"

namespace sgm::tensor {
bool gemm_avx2_compiled() {
#ifdef SGM_GEMM_AVX2_BUILD
  return true;
#else
  return false;
#endif
}
}  // namespace sgm::tensor

#ifdef SGM_GEMM_AVX2_BUILD

#include <immintrin.h>

namespace sgm::tensor::gemm_avx2 {

namespace {

constexpr std::size_t kMR = 4;
constexpr std::size_t kNR = 8;

// Lanes [0, w) set, the others clear (w >= 4 sets all four).
inline __m256i lane_mask(std::size_t w) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(w)),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

// Four doubles at p: all of them, or the lanes `m` selects (the others read
// as 0.0 and their addresses are never touched).
template <bool Full>
inline __m256d load4(const double* p, __m256i m) {
  if constexpr (Full)
    return _mm256_loadu_pd(p);
  else
    return _mm256_maskload_pd(p, m);
}

template <bool Full>
inline void store4(double* p, __m256i m, __m256d v, bool accumulate) {
  if (accumulate) v = _mm256_add_pd(load4<Full>(p, m), v);
  if constexpr (Full)
    _mm256_storeu_pd(p, v);
  else
    _mm256_maskstore_pd(p, m, v);
}

// One MR x (4 * NV) block of C at (i, j): C(i + ii, j + jj) (+)= sum_p
// A(i + ii, p) * B(p, j + jj), where a_at(row, p) reads the left operand.
// Full blocks load and store whole vectors; partial ones use the lane masks
// m[0..NV) for the column edge. Every element is one ymm lane: an FMA chain
// from +0.0 in ascending p.
template <std::size_t MR, std::size_t NV, bool Full, class AAt>
inline void block(const AAt& a_at, std::size_t k, const Matrix& b, Matrix& c,
                  std::size_t i, std::size_t j, const __m256i* m,
                  bool accumulate) {
  __m256d acc[MR][NV];
  for (std::size_t ii = 0; ii < MR; ++ii)
    for (std::size_t v = 0; v < NV; ++v) acc[ii][v] = _mm256_setzero_pd();
  for (std::size_t p = 0; p < k; ++p) {
    const double* brow = b.row(p) + j;
    __m256d bv[NV];
    for (std::size_t v = 0; v < NV; ++v) bv[v] = load4<Full>(brow + 4 * v, m[v]);
    for (std::size_t ii = 0; ii < MR; ++ii) {
      const __m256d av = _mm256_set1_pd(a_at(i + ii, p));
      for (std::size_t v = 0; v < NV; ++v)
        acc[ii][v] = _mm256_fmadd_pd(av, bv[v], acc[ii][v]);
    }
  }
  for (std::size_t ii = 0; ii < MR; ++ii)
    for (std::size_t v = 0; v < NV; ++v)
      store4<Full>(c.row(i + ii) + j + 4 * v, m[v], acc[ii][v], accumulate);
}

// MR rows of C starting at row i: full 8-wide blocks, then the column edge
// (n % 8 columns) as one masked block of one or two vectors.
template <std::size_t MR, class AAt>
inline void row_panel(const AAt& a_at, std::size_t k, const Matrix& b,
                      Matrix& c, std::size_t i, const __m256i* edge,
                      bool accumulate) {
  const std::size_t n = b.cols();
  std::size_t j = 0;
  for (; j + kNR <= n; j += kNR)
    block<MR, 2, true>(a_at, k, b, c, i, j, edge, accumulate);
  const std::size_t w = n - j;
  if (w > 4)
    block<MR, 2, false>(a_at, k, b, c, i, j, edge, accumulate);
  else if (w > 0)
    block<MR, 1, false>(a_at, k, b, c, i, j, edge, accumulate);
}

// C rows [r0, r1): panels of 4 rows, then the 1-3 leftover rows as one
// shorter panel.
template <class AAt>
void gemm_range(const AAt& a_at, std::size_t k, const Matrix& b, Matrix& c,
                std::size_t r0, std::size_t r1, bool accumulate) {
  const std::size_t w = b.cols() % kNR;
  const __m256i edge[2] = {lane_mask(w), lane_mask(w > 4 ? w - 4 : 0)};
  std::size_t i = r0;
  for (; i + kMR <= r1; i += kMR)
    row_panel<kMR>(a_at, k, b, c, i, edge, accumulate);
  switch (r1 - i) {
    case 3: row_panel<3>(a_at, k, b, c, i, edge, accumulate); break;
    case 2: row_panel<2>(a_at, k, b, c, i, edge, accumulate); break;
    case 1: row_panel<1>(a_at, k, b, c, i, edge, accumulate); break;
    default: break;
  }
}

}  // namespace

void gemm_nn_range(const Matrix& a, const Matrix& b, Matrix& c,
                   std::size_t r0, std::size_t r1, bool accumulate) {
  gemm_range([&a](std::size_t r, std::size_t p) { return a.row(r)[p]; },
             a.cols(), b, c, r0, r1, accumulate);
}

// C = A^T * B: row r of C reads column r of A.
void gemm_tn_range(const Matrix& a, const Matrix& b, Matrix& c,
                   std::size_t r0, std::size_t r1, bool accumulate) {
  gemm_range([&a](std::size_t r, std::size_t p) { return a.row(p)[r]; },
             a.rows(), b, c, r0, r1, accumulate);
}

void gemm_nt_range(const Matrix& a, const Matrix& b, Matrix& c,
                   std::size_t r0, std::size_t r1, bool accumulate) {
  // The NT shape (strided B access in the reduction) does not vectorize
  // profitably; the hot backward path avoids it entirely by transposing the
  // right operand once (pooled scratch) and calling the NN kernel. The
  // generic build serves the remaining cold callers.
  gemm_generic::gemm_nt_range(a, b, c, r0, r1, accumulate);
}

}  // namespace sgm::tensor::gemm_avx2

#else

namespace sgm::tensor::gemm_avx2 {

void gemm_nn_range(const Matrix& a, const Matrix& b, Matrix& c,
                   std::size_t r0, std::size_t r1, bool accumulate) {
  gemm_generic::gemm_nn_range(a, b, c, r0, r1, accumulate);
}

void gemm_tn_range(const Matrix& a, const Matrix& b, Matrix& c,
                   std::size_t r0, std::size_t r1, bool accumulate) {
  gemm_generic::gemm_tn_range(a, b, c, r0, r1, accumulate);
}

void gemm_nt_range(const Matrix& a, const Matrix& b, Matrix& c,
                   std::size_t r0, std::size_t r1, bool accumulate) {
  gemm_generic::gemm_nt_range(a, b, c, r0, r1, accumulate);
}

}  // namespace sgm::tensor::gemm_avx2

#endif

#pragma once
// Internal header: per-ISA GEMM kernel builds and their runtime dispatch.
//
// Two builds of the GEMM kernels exist: the portable micro-kernels of
// gemm_kernels.inl, compiled with the project's baseline flags (namespace
// gemm_generic, in matrix.cpp), and AVX2+FMA intrinsics kernels (namespace
// gemm_avx2, gemm_avx2.cpp, compiled with -mavx2 -mfma on x86-64 +
// gcc/clang builds only). matrix.cpp selects one set of function pointers
// at startup via __builtin_cpu_supports, so a single portable binary uses
// FMA-width kernels wherever the CPU has them. The choice is made once per
// process and never depends on thread count, preserving the determinism
// contract. Within one build, every output element is one accumulation
// chain in ascending reduction order whichever tile or edge computes it:
// the AVX2 edges are masked vector blocks with the tiles' fused chain, and
// the generic build, the only path on CPUs without AVX2, rounds mul and
// add separately everywhere.

#include <cstddef>

#include "tensor/matrix.hpp"

namespace sgm::tensor {

namespace gemm_generic {
void gemm_nn_range(const Matrix& a, const Matrix& b, Matrix& c,
                   std::size_t r0, std::size_t r1, bool accumulate);
void gemm_tn_range(const Matrix& a, const Matrix& b, Matrix& c,
                   std::size_t r0, std::size_t r1, bool accumulate);
void gemm_nt_range(const Matrix& a, const Matrix& b, Matrix& c,
                   std::size_t r0, std::size_t r1, bool accumulate);
}  // namespace gemm_generic

namespace gemm_avx2 {
void gemm_nn_range(const Matrix& a, const Matrix& b, Matrix& c,
                   std::size_t r0, std::size_t r1, bool accumulate);
void gemm_tn_range(const Matrix& a, const Matrix& b, Matrix& c,
                   std::size_t r0, std::size_t r1, bool accumulate);
void gemm_nt_range(const Matrix& a, const Matrix& b, Matrix& c,
                   std::size_t r0, std::size_t r1, bool accumulate);
}  // namespace gemm_avx2

/// True when gemm_avx2.cpp was actually built with AVX2+FMA codegen (its
/// stubs forward to gemm_generic otherwise).
bool gemm_avx2_compiled();

/// True when runtime dispatch selected the AVX2+FMA kernels for this
/// process (compiled in AND the CPU reports avx2+fma). Tests use this to
/// pick the right bitwise reference: every AVX2 path (full tiles and the
/// masked vector edges) rounds each step as one fused multiply-add, like a
/// std::fma chain; every generic path rounds mul and add separately.
bool gemm_avx2_active();

}  // namespace sgm::tensor

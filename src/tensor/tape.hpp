#pragma once
// Reverse-mode automatic differentiation over Matrix values — v2.
//
// The tape is define-by-run: the MLP forward pass — including the
// propagation of input-Jacobians and of the input Laplacian needed by PDE
// residuals — is recorded as a sequence of Matrix ops, and one backward()
// sweep produces gradients w.r.t. every parameter leaf. Nodes are
// topologically ordered by construction, so the backward sweep is a simple
// reverse iteration.
//
// v2 execution model (PR 4):
//  * ops are an enum dispatched in a switch, not std::function closures —
//    a node carries three input ids, a few scalar params and an
//    ElementwiseFunction pointer, never a heap-allocated callable; the one
//    variadic op (kActLaplacian) keeps its further input ids in the tape's
//    pooled id list;
//  * nodes live in a bump arena: clear() resets the node count but keeps
//    every node's value/grad/aux Matrix buffers, so a tape reused across
//    training steps re-records the same graph into the same buffers with
//    ZERO heap allocations in steady state (asserted by tests for the
//    identity and the Fourier input encodings, which encode straight into
//    constant slots);
//  * gradients are write-first: a kernel that writes every element of an
//    input's gradient stores on the node's first contribution of the sweep
//    instead of accumulating into a zero-filled buffer (grad_out). GEMMs
//    store with accumulate=false (an FMA chain from +0.0 is never -0.0, so
//    that equals 0.0 + x); elementwise kernels store x + 0.0, which turns
//    -0.0 into +0.0 exactly as 0.0 + x did. Only partial writers (kCol,
//    bias column sums, kHcat) still zero-fill (grad_buf);
//  * a matmul's left gradient g · B^T reads B^T from value_transposed(B),
//    computed once per backward sweep on B's slot: every layer's weight is
//    transposed once however many matmul/affine nodes read it;
//  * activations evaluate their derivative ladder once per chunk through
//    the array ElementwiseFunction::eval_orders, not per element;
//  * kernels are threaded over row/element chunks via util::ThreadPool.
//    Every threaded kernel writes disjoint output elements and keeps each
//    element's floating-point accumulation order fixed, and reductions run
//    serially, so results are byte-identical at any num_threads (the
//    trainer's determinism invariant). num_threads=1 (the default) never
//    touches the pool.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/matrix.hpp"
#include "util/thread_pool.hpp"

namespace sgm::tensor {

class ElementwiseFunction;

using VarId = std::int32_t;
inline constexpr VarId kNoVar = -1;

/// The op set. Fused ops exist for the training-step hot path:
/// kAffine = matmul + bias row broadcast; kActivation evaluates f, f', f''
/// (and f''' for backward) in ONE sweep over z; kActChain (one per input
/// dimension) and kActLaplacian (one per layer) are the derivative
/// propagation rules of the MLP layer (see nn/mlp.hpp), each a single fused
/// elementwise pass.
enum class Op : std::uint8_t {
  kLeaf,          // constant or parameter
  kAdd,           // a + b
  kSub,           // a - b
  kMul,           // a ⊙ b
  kScale,         // scalar * a
  kAddScalar,     // a + scalar
  kMatmul,        // a · b
  kAffine,        // a · w + 1 ⊗ bias
  kAddRowvec,     // x + 1 ⊗ b
  kApply,         // f^(order)(a) elementwise
  kActivation,    // f(z); aux[k] = f^(k+1)(z) for k < orders
  kActChain,      // f'(z) ⊙ zk            (ref: the kActivation node)
  kActLaplacian,  // Σ_k f''(z) ⊙ z_k² + f'(z) ⊙ lz  (ref: kActivation node;
                  //   in[1] = lz, the z_k are the node's more_inputs())
  kSquare,        // a ⊙ a
  kCol,           // column `index` of a
  kMeanAll,       // scalar mean
  kSumAll,        // scalar sum
  kWeightedMean,  // scalar sum(w ⊙ a) / n, w in aux[0]
  kHcat,          // [a | b], index = a.cols
};

/// One arena slot. Matrix members are pooled: emit() reuses them in place
/// (resize retains capacity), which is where the zero-allocation steady
/// state comes from. Treated as internal by everything except the op
/// kernels in ops.cpp.
struct TapeNode {
  Matrix value;
  Matrix grad;                 // valid only when grad_set (stale otherwise)
  std::array<Matrix, 3> aux;   // kActivation: f',f'',f'''; kWeightedMean: w;
                               // kActLaplacian: backward scratch
  const ElementwiseFunction* fn = nullptr;
  double scalar = 0.0;         // kScale/kAddScalar factor, reduction 1/n
  Matrix value_t;              // value^T, valid only when value_t_set
  std::uint32_t index = 0;     // kCol j; kHcat split; kActivation orders;
                               // kActLaplacian: number of more_inputs
  std::uint32_t more = 0;      // kActLaplacian: offset in the tape id list
  int order = 0;               // kApply derivative order
  std::array<VarId, 3> in = {kNoVar, kNoVar, kNoVar};
  VarId ref = kNoVar;          // kActChain/kActLaplacian -> kActivation node
  Op op = Op::kLeaf;
  bool requires_grad = false;
  bool grad_set = false;
  bool value_t_set = false;
};

class Tape {
 public:
  /// Leaf that never receives a gradient (e.g. collocation coordinates).
  /// The value is copied into the slot's pooled buffer.
  VarId constant(const Matrix& value);

  /// Leaf that accumulates a gradient (network weights / biases).
  VarId parameter(const Matrix& value);

  /// Leaf constant with an uninitialized (rows x cols) value the caller
  /// fills in place via mutable_value() — lets encodings write directly
  /// into the arena without a staging matrix.
  VarId constant_uninit(std::size_t rows, std::size_t cols);

  /// Record an op node (kernel interface, used by the emitters in ops.cpp).
  /// requires_grad is inferred from the inputs; throws on out-of-range ids.
  VarId emit(Op op, VarId in0 = kNoVar, VarId in1 = kNoVar,
             VarId in2 = kNoVar, VarId ref = kNoVar,
             std::span<const VarId> more = {});

  /// The input ids a node recorded beyond in[0..2] (emit's `more`).
  std::span<const VarId> more_inputs(VarId id) const {
    const TapeNode& n = pool_[id];
    return {more_.data() + n.more, n.index};
  }

  const Matrix& value(VarId id) const { return pool_[id].value; }
  Matrix& mutable_value(VarId id) { return pool_[id].value; }

  /// Gradient of the last backward() root w.r.t. node `id`. Empty matrix if
  /// the node never received a gradient.
  const Matrix& grad(VarId id) const;

  bool requires_grad(VarId id) const { return pool_[id].requires_grad; }

  /// value(id)^T, computed into the slot's pooled buffer on the first call
  /// of a backward sweep and shared by every later caller of that sweep.
  const Matrix& value_transposed(VarId id);

  /// Runs reverse-mode accumulation from `root`, which must be 1x1.
  /// Clears any previous gradients and cached transposes first.
  void backward(VarId root);

  std::size_t num_nodes() const { return size_; }

  /// Drop all nodes; node slots and their Matrix capacity are retained so
  /// per-step reuse is allocation-free once shapes have stabilized.
  void clear() {
    size_ = 0;
    more_.clear();
  }

  /// Worker threads for the threaded kernels (resolved count; 1 = serial,
  /// the default). Results are byte-identical at any setting.
  void set_num_threads(std::size_t n) { threads_ = n > 0 ? n : 1; }
  std::size_t num_threads() const { return threads_; }

  /// Kernel access to a node slot (ops.cpp only).
  TapeNode& node(VarId id) { return pool_[id]; }
  const TapeNode& node(VarId id) const { return pool_[id]; }

  /// Gradient buffer of `id` for a kernel that writes EVERY element of it.
  /// `first` is set when this is the node's first contribution of the
  /// backward sweep: the buffer is then shaped like the value but not
  /// filled, and the kernel must store instead of accumulate (write-first).
  Matrix& grad_out(VarId id, bool& first);

  /// Gradient buffer of `id`, zero-filled on the first touch of this
  /// backward sweep, for kernels that accumulate into only part of it
  /// (kCol, the bias column sums, kHcat).
  Matrix& grad_buf(VarId id);

  /// Chunked loop over [0, n): fn(begin, end). Runs inline when serial or
  /// when n is below two grains; otherwise fans out over the shared pool
  /// with a chunk layout that depends only on `grain` — callers write
  /// disjoint slots, so outputs never depend on the thread count.
  template <class Fn>
  void parallel_range(std::size_t n, std::size_t grain, Fn&& fn) const {
    if (threads_ <= 1 || n < 2 * grain) {
      fn(std::size_t{0}, n);
      return;
    }
    util::parallel_for_chunks(
        0, n, grain, threads_,
        [&fn](std::size_t b, std::size_t e, std::size_t) { fn(b, e); });
  }

  /// Grain sizes for the threaded kernels (rows for GEMM-shaped loops,
  /// raw elements for pointwise loops).
  static constexpr std::size_t kRowGrain = 32;
  static constexpr std::size_t kElemGrain = 8192;

 private:
  VarId alloc_node();

  std::vector<TapeNode> pool_;
  std::vector<VarId> more_;  // variadic inputs, see emit(); capacity kept
  std::size_t size_ = 0;
  std::size_t threads_ = 1;
};

}  // namespace sgm::tensor

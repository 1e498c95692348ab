#include "tensor/tape.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"

namespace sgm::tensor {

VarId Tape::alloc_node() {
  if (size_ == pool_.size()) pool_.emplace_back();
  TapeNode& n = pool_[size_];
  n.fn = nullptr;
  n.scalar = 0.0;
  n.index = 0;
  n.more = 0;
  n.order = 0;
  n.in = {kNoVar, kNoVar, kNoVar};
  n.ref = kNoVar;
  n.op = Op::kLeaf;
  n.requires_grad = false;
  n.grad_set = false;
  n.value_t_set = false;
  return static_cast<VarId>(size_++);
}

VarId Tape::constant(const Matrix& value) {
  const VarId id = alloc_node();
  pool_[id].value = value;  // copy-assign reuses the pooled buffer
  return id;
}

VarId Tape::parameter(const Matrix& value) {
  const VarId id = alloc_node();
  pool_[id].value = value;
  pool_[id].requires_grad = true;
  return id;
}

VarId Tape::constant_uninit(std::size_t rows, std::size_t cols) {
  const VarId id = alloc_node();
  pool_[id].value.resize(rows, cols);
  return id;
}

VarId Tape::emit(Op op, VarId in0, VarId in1, VarId in2, VarId ref,
                 std::span<const VarId> more) {
  const VarId id = alloc_node();
  TapeNode& n = pool_[id];
  n.op = op;
  n.in = {in0, in1, in2};
  n.ref = ref;
  auto take = [&](VarId in) {
    if (in == kNoVar) return;
    if (in < 0 || in >= id) throw std::out_of_range("Tape::emit: bad input id");
    if (pool_[in].requires_grad) n.requires_grad = true;
  };
  for (VarId in : n.in) take(in);
  for (VarId in : more) take(in);
  if (ref != kNoVar && (ref < 0 || ref >= id))
    throw std::out_of_range("Tape::emit: bad ref id");
  if (!more.empty()) {
    n.more = static_cast<std::uint32_t>(more_.size());
    n.index = static_cast<std::uint32_t>(more.size());
    more_.insert(more_.end(), more.begin(), more.end());
  }
  return id;
}

const Matrix& Tape::grad(VarId id) const {
  static const Matrix kEmpty;
  const TapeNode& n = pool_[id];
  return n.grad_set ? n.grad : kEmpty;
}

Matrix& Tape::grad_out(VarId id, bool& first) {
  TapeNode& n = pool_[id];
  first = !n.grad_set;
  if (first) {
    n.grad.resize(n.value.rows(), n.value.cols());
    n.grad_set = true;
  }
  return n.grad;
}

Matrix& Tape::grad_buf(VarId id) {
  bool first = false;
  Matrix& g = grad_out(id, first);
  if (first) g.set_zero();
  return g;
}

const Matrix& Tape::value_transposed(VarId id) {
  TapeNode& n = pool_[id];
  if (!n.value_t_set) {
    transpose_into(n.value, n.value_t);
    n.value_t_set = true;
  }
  return n.value_t;
}

void Tape::backward(VarId root) {
  if (root < 0 || static_cast<std::size_t>(root) >= size_)
    throw std::out_of_range("Tape::backward: bad root id");
  const Matrix& rv = pool_[root].value;
  if (rv.rows() != 1 || rv.cols() != 1)
    throw std::invalid_argument("Tape::backward: root must be a 1x1 scalar");
  for (std::size_t i = 0; i < size_; ++i) {
    pool_[i].grad_set = false;
    pool_[i].value_t_set = false;
  }
  {
    TapeNode& r = pool_[root];
    r.grad.resize(1, 1);
    r.grad(0, 0) = 1.0;
    r.grad_set = true;
  }
  for (VarId id = root; id >= 0; --id) {
    TapeNode& n = pool_[id];
    if (!n.requires_grad || !n.grad_set || n.op == Op::kLeaf) continue;
    detail::backward_node(*this, id);
  }
}

}  // namespace sgm::tensor

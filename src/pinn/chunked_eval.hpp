#pragma once
// Forward-only tape evaluation of per-row quantities in fixed row chunks on
// one reused tape: every problem's pointwise_residual (the scoring pass the
// samplers drive) and LdcProblem's nu validation. One tape over all rows
// holds every layer's value, derivative and activation-ladder buffers at
// once: a 2458-row n_deriv=2 scoring tape of the full-scale LDC net peaked
// at about 54 MiB. A 256-row chunk holds a tenth of that and stays in
// cache.
//
// Each row's values are bitwise those of one tape over all rows: every tape
// kernel these passes record computes a row from that row alone (the GEMM
// per-row contract in tensor/matrix.hpp, elementwise ops otherwise), and
// the tapes run serially.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "nn/mlp.hpp"
#include "pinn/point_cloud.hpp"
#include "tensor/tape.hpp"

namespace sgm::pinn {

/// Rows per chunk. Results do not depend on it, so it is not an option.
inline constexpr std::size_t kEvalChunkRows = 256;

/// Calls record(tape, binding, chunk, r0) for consecutive row chunks of `x`
/// (chunk = rows [r0, r0 + chunk.rows())), each recorded on the same tape
/// after clear() and a fresh bind of `net`. `record` must read what it
/// needs off the tape before it returns.
template <class Record>
void for_each_row_chunk(const nn::Mlp& net, const tensor::Matrix& x,
                        Record&& record) {
  tensor::Tape tape;
  nn::Mlp::Binding binding;
  tensor::Matrix chunk;
  for (std::size_t r0 = 0; r0 < x.rows(); r0 += kEvalChunkRows) {
    const std::size_t r1 = std::min(x.rows(), r0 + kEvalChunkRows);
    chunk.resize(r1 - r0, x.cols());
    std::copy(x.row(r0), x.row(r0) + chunk.size(), chunk.data());
    tape.clear();
    net.bind(tape, &binding);
    record(tape, binding, chunk, r0);
  }
}

/// Per-point scores at `rows` of `points`: column 0 of the (n x 1) node
/// that residual(tape, binding, batch) records for each chunk.
template <class Residual>
std::vector<double> pointwise_scores(const nn::Mlp& net,
                                     const tensor::Matrix& points,
                                     const std::vector<std::uint32_t>& rows,
                                     Residual&& residual) {
  std::vector<double> score(rows.size());
  for_each_row_chunk(
      net, gather_rows(points, rows),
      [&](tensor::Tape& tape, const nn::Mlp::Binding& binding,
          const tensor::Matrix& batch, std::size_t r0) {
        const tensor::Matrix& r =
            tape.value(residual(tape, binding, batch));
        for (std::size_t i = 0; i < batch.rows(); ++i) score[r0 + i] = r(i, 0);
      });
  return score;
}

}  // namespace sgm::pinn

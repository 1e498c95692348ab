#pragma once
// Direct solver for shifted graph-Laplacian systems (L + shift*I) x = b.
//
// The nodes are renumbered by reverse Cuthill-McKee, which pulls every
// edge close to the diagonal, and the matrix is factored once as L L^T in
// envelope (skyline) storage: row i keeps the columns from its first
// nonzero up to the diagonal, and Cholesky creates no fill outside that
// envelope. On kNN graphs over low-dimensional points the envelope is a
// small multiple of the edge count, so factoring costs milliseconds and
// each solve is two passes over the envelope — exact, whatever the edge
// weights, where Jacobi-preconditioned CG can stall (see spade/isr.cpp).
//
// For shift > 0 the matrix is strictly diagonally dominant with a positive
// diagonal, hence SPD, and no pivoting is needed.

#include <cstddef>
#include <vector>

#include "graph/csr.hpp"
#include "graph/laplacian.hpp"

namespace sgm::graph {

/// Reverse Cuthill-McKee ordering of `g`: order[new] = old node id. Each
/// connected component starts at a pseudo-peripheral node (George-Liu
/// search from its lowest-degree node) and neighbors are visited by
/// ascending (degree, node id), so the ordering is a pure function of the
/// graph's structure.
std::vector<NodeId> reverse_cuthill_mckee(const CsrGraph& g);

class EnvelopeCholesky {
 public:
  /// Factors L(g) + shift*I in `g`'s reverse Cuthill-McKee order. `shift`
  /// must be finite and > 0. Throws std::invalid_argument when a pivot is
  /// not finite and positive (e.g. an infinite edge weight).
  EnvelopeCholesky(const CsrGraph& g, double shift);

  /// x = (L + shift*I)^-1 b; `b` must have size() entries.
  void solve(const Vec& b, Vec& x) const;

  std::size_t size() const { return diag_.size(); }
  /// Strictly-lower factor entries stored (the envelope's size).
  std::size_t envelope_size() const { return env_.size(); }

 private:
  std::vector<NodeId> order_;         ///< order_[row] = original node id
  std::vector<std::size_t> first_;    ///< first stored column of each row
  std::vector<std::size_t> offset_;   ///< row starts into env_ (n + 1)
  std::vector<double> env_;           ///< row i: columns first_[i] .. i-1
  std::vector<double> diag_;          ///< the factor's diagonal
};

}  // namespace sgm::graph

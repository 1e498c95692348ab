#include "graph/envelope_cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/check.hpp"

namespace sgm::graph {

namespace {

// Breadth-first level structure rooted at one node. `seen` holds, per node,
// the stamp of the last search that reached it, so repeated searches need
// no clearing.
struct Levels {
  std::vector<NodeId> nodes;   ///< visit order
  std::size_t last_level = 0;  ///< start of the last level in `nodes`
  std::size_t depth = 0;       ///< number of levels
};

Levels bfs_levels(const CsrGraph& g, NodeId root,
                  std::vector<std::uint32_t>& seen, std::uint32_t stamp) {
  Levels out;
  out.nodes.push_back(root);
  seen[root] = stamp;
  std::size_t begin = 0;
  while (begin < out.nodes.size()) {
    const std::size_t end = out.nodes.size();
    out.last_level = begin;
    ++out.depth;
    for (std::size_t h = begin; h < end; ++h)
      for (NodeId v : g.neighbors(out.nodes[h]))
        if (seen[v] != stamp) {
          seen[v] = stamp;
          out.nodes.push_back(v);
        }
    begin = end;
  }
  return out;
}

}  // namespace

std::vector<NodeId> reverse_cuthill_mckee(const CsrGraph& g) {
  const NodeId n = g.num_nodes();
  auto lighter = [&g](NodeId a, NodeId b) {
    const std::size_t da = g.degree(a), db = g.degree(b);
    return da != db ? da < db : a < b;
  };
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<char> placed(n, 0);
  std::vector<std::uint32_t> seen(n, 0);
  std::uint32_t stamp = 0;
  std::vector<NodeId> fresh;
  for (NodeId s = 0; s < n; ++s) {
    if (placed[s]) continue;
    // George-Liu: from the component's lightest node, hop to the lightest
    // node of the last BFS level while that deepens the level structure.
    const Levels comp = bfs_levels(g, s, seen, ++stamp);
    NodeId root = *std::min_element(comp.nodes.begin(), comp.nodes.end(),
                                    lighter);
    Levels lv = bfs_levels(g, root, seen, ++stamp);
    for (;;) {
      const NodeId cand =
          *std::min_element(lv.nodes.begin() + lv.last_level, lv.nodes.end(),
                            lighter);
      Levels next = bfs_levels(g, cand, seen, ++stamp);
      if (next.depth <= lv.depth) break;
      root = cand;
      lv = std::move(next);
    }
    // Cuthill-McKee sweep: unplaced neighbors by ascending (degree, id).
    const std::size_t head0 = order.size();
    order.push_back(root);
    placed[root] = 1;
    for (std::size_t h = head0; h < order.size(); ++h) {
      fresh.clear();
      for (NodeId v : g.neighbors(order[h]))
        if (!placed[v]) {
          placed[v] = 1;
          fresh.push_back(v);
        }
      std::sort(fresh.begin(), fresh.end(), lighter);
      order.insert(order.end(), fresh.begin(), fresh.end());
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

EnvelopeCholesky::EnvelopeCholesky(const CsrGraph& g, double shift)
    : order_(reverse_cuthill_mckee(g)) {
  SGM_CHECK_ARG(std::isfinite(shift) && shift > 0.0,
                "EnvelopeCholesky: shift must be finite and > 0, got ", shift);
  const std::size_t n = g.num_nodes();
  std::vector<std::size_t> row_of(n);
  for (std::size_t i = 0; i < n; ++i) row_of[order_[i]] = i;

  first_.resize(n);
  offset_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t f = i;
    for (NodeId v : g.neighbors(order_[i])) f = std::min(f, row_of[v]);
    first_[i] = f;
    offset_[i + 1] = offset_[i] + (i - f);
  }

  // Scatter the strictly-lower part of L + shift*I (off-diagonals are
  // -w), then factor row by row:
  //   L(i,j) = (A(i,j) - sum_k L(i,k) L(j,k)) / L(j,j),  j < i
  //   L(i,i) = sqrt(A(i,i) - sum_k L(i,k)^2)
  // Both sums run over the overlap of the two rows' envelopes, which are
  // contiguous in env_.
  env_.assign(offset_[n], 0.0);
  diag_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto nbrs = g.neighbors(order_[i]);
    const auto inc = g.incident_edges(order_[i]);
    for (std::size_t t = 0; t < nbrs.size(); ++t) {
      const std::size_t j = row_of[nbrs[t]];
      if (j < i) env_[offset_[i] + (j - first_[i])] -= g.edge(inc[t]).w;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    double* row_i = env_.data() + offset_[i];
    const std::size_t fi = first_[i];
    double sq = 0.0;
    for (std::size_t j = fi; j < i; ++j) {
      const double* row_j = env_.data() + offset_[j];
      const std::size_t k0 = std::max(fi, first_[j]);
      double s = row_i[j - fi];
      for (std::size_t k = k0; k < j; ++k)
        s -= row_i[k - fi] * row_j[k - first_[j]];
      s /= diag_[j];
      row_i[j - fi] = s;
      sq += s * s;
    }
    const double pivot = g.weighted_degree(order_[i]) + shift - sq;
    SGM_CHECK_ARG(std::isfinite(pivot) && pivot > 0.0,
                  "EnvelopeCholesky: pivot ", pivot, " at node ", order_[i],
                  " is not finite and positive");
    diag_[i] = std::sqrt(pivot);
  }
}

void EnvelopeCholesky::solve(const Vec& b, Vec& x) const {
  const std::size_t n = size();
  SGM_CHECK_ARG(b.size() == n, "EnvelopeCholesky::solve: rhs size ", b.size(),
                " != ", n);
  Vec y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = b[order_[i]];
  // Forward: L y = P b, one row dot product each.
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = env_.data() + offset_[i];
    double s = y[i];
    for (std::size_t k = first_[i]; k < i; ++k) s -= row[k - first_[i]] * y[k];
    y[i] = s / diag_[i];
  }
  // Backward: L^T z = y, scattering each solved entry up its row.
  for (std::size_t i = n; i-- > 0;) {
    const double* row = env_.data() + offset_[i];
    const double zi = y[i] / diag_[i];
    y[i] = zi;
    for (std::size_t k = first_[i]; k < i; ++k) y[k] -= row[k - first_[i]] * zi;
  }
  x.resize(n);
  for (std::size_t i = 0; i < n; ++i) x[order_[i]] = y[i];
}

}  // namespace sgm::graph

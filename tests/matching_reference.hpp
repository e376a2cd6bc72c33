#pragma once

// Reference matchings for the tests: the vector-based maximum-weight
// matching and min-cost assignment over match/hungarian's
// HungarianWorkspace, and a proper-edge-coloring check for
// match/edge_coloring. MaxWeightScheduler::select (baseline/schedulers.cpp)
// inlines max_weight_matching's encoding over its candidate list -- keep
// the two in sync.

#include <cassert>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "match/edge_coloring.hpp"
#include "match/hungarian.hpp"

namespace rdcn {

struct WeightedBipartiteEdge {
  std::int32_t left = 0;
  std::int32_t right = 0;
  double weight = 0.0;
};

struct MatchingResult {
  std::vector<std::size_t> edges;  ///< indices into the input edge list
  double total_weight = 0.0;
};

/// Minimum-cost assignment on a dense square matrix: returns, for each row,
/// the assigned column. cost[i][j] may be any finite double. O(n^3).
inline std::vector<std::int32_t> min_cost_assignment(
    const std::vector<std::vector<double>>& cost) {
  const std::size_t n = cost.size();
  if (n == 0) return {};
  std::vector<double> flat;
  flat.reserve(n * n);
  for (const auto& row : cost) {
    if (row.size() != n) throw std::invalid_argument("assignment matrix must be square");
    flat.insert(flat.end(), row.begin(), row.end());
  }
  HungarianWorkspace workspace;
  std::vector<std::int32_t> assignment;
  workspace.solve(flat.data(), n, n, assignment);
  return assignment;
}

/// Maximum-weight (not necessarily perfect, not necessarily maximum-
/// cardinality) matching: only edges with positive weight contribute, and
/// the matching maximizes the total weight. Negative-weight edges are never
/// selected. O((L+R)^3).
inline MatchingResult max_weight_matching(const std::vector<WeightedBipartiteEdge>& edges,
                                          std::size_t num_left, std::size_t num_right) {
  MatchingResult result;
  if (edges.empty() || num_left == 0 || num_right == 0) return result;
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  // Cell (i, j) holds minus the best (heaviest) gain between i and j;
  // absent pairs cost 0, so the optimal assignment restricted to
  // negative-cost cells is exactly a maximum-weight matching. Transpose so
  // rows is the smaller side (the solver is rectangular).
  const bool transpose = num_left > num_right;
  const std::size_t rows = transpose ? num_right : num_left;
  const std::size_t cols = transpose ? num_left : num_right;
  std::vector<double> cost(rows * cols, 0.0);
  std::vector<std::size_t> best_edge(rows * cols, kNone);
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const auto& e = edges[k];
    assert(e.left >= 0 && static_cast<std::size_t>(e.left) < num_left);
    assert(e.right >= 0 && static_cast<std::size_t>(e.right) < num_right);
    const auto i = static_cast<std::size_t>(transpose ? e.right : e.left);
    const auto j = static_cast<std::size_t>(transpose ? e.left : e.right);
    if (-e.weight < cost[i * cols + j]) {
      cost[i * cols + j] = -e.weight;
      best_edge[i * cols + j] = k;
    }
  }

  HungarianWorkspace workspace;
  std::vector<std::int32_t> assignment;
  workspace.solve(cost.data(), rows, cols, assignment);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto j = static_cast<std::size_t>(assignment[i]);
    const std::size_t cell = i * cols + j;
    if (cost[cell] < 0.0 && best_edge[cell] != kNone) {
      result.edges.push_back(best_edge[cell]);
      result.total_weight -= cost[cell];
    }
  }
  return result;
}

/// Verifies that every color class is a matching.
inline bool is_proper_edge_coloring(const std::vector<BipartiteEdge>& edges,
                                    const EdgeColoring& coloring, std::size_t num_left,
                                    std::size_t num_right) {
  if (coloring.color.size() != edges.size()) return false;
  for (std::int32_t c : coloring.color) {
    if (c < 0 || c >= coloring.num_colors) return false;
  }
  const auto colors = static_cast<std::size_t>(coloring.num_colors);
  std::vector<std::vector<bool>> seen_left(num_left, std::vector<bool>(colors, false));
  std::vector<std::vector<bool>> seen_right(num_right, std::vector<bool>(colors, false));
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const auto c = static_cast<std::size_t>(coloring.color[k]);
    auto&& l = seen_left[static_cast<std::size_t>(edges[k].left)][c];
    auto&& r = seen_right[static_cast<std::size_t>(edges[k].right)][c];
    if (l || r) return false;
    l = true;
    r = true;
  }
  return true;
}

}  // namespace rdcn

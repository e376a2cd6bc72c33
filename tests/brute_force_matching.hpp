#pragma once

// Exponential-time matching oracles for the tests: they verify the
// polynomial algorithms on small random graphs.

#include <algorithm>
#include <vector>

#include "matching_reference.hpp"

namespace rdcn {

namespace brute_force_detail {

struct SearchState {
  const std::vector<WeightedBipartiteEdge>* edges = nullptr;
  std::vector<bool> left_busy;
  std::vector<bool> right_busy;
};

inline double search_weight(SearchState& state, std::size_t index) {
  const auto& edges = *state.edges;
  if (index == edges.size()) return 0.0;
  // Skip this edge.
  double best = search_weight(state, index + 1);
  const auto left = static_cast<std::size_t>(edges[index].left);
  const auto right = static_cast<std::size_t>(edges[index].right);
  if (!state.left_busy[left] && !state.right_busy[right]) {
    state.left_busy[left] = true;
    state.right_busy[right] = true;
    best = std::max(best, edges[index].weight + search_weight(state, index + 1));
    state.left_busy[left] = false;
    state.right_busy[right] = false;
  }
  return best;
}

inline std::size_t search_cardinality(SearchState& state, std::size_t index) {
  const auto& edges = *state.edges;
  if (index == edges.size()) return 0;
  std::size_t best = search_cardinality(state, index + 1);
  const auto left = static_cast<std::size_t>(edges[index].left);
  const auto right = static_cast<std::size_t>(edges[index].right);
  if (!state.left_busy[left] && !state.right_busy[right]) {
    state.left_busy[left] = true;
    state.right_busy[right] = true;
    best = std::max(best, 1 + search_cardinality(state, index + 1));
    state.left_busy[left] = false;
    state.right_busy[right] = false;
  }
  return best;
}

inline SearchState start_search(const std::vector<WeightedBipartiteEdge>& edges,
                                std::size_t num_left, std::size_t num_right) {
  SearchState state;
  state.edges = &edges;
  state.left_busy.assign(num_left, false);
  state.right_busy.assign(num_right, false);
  return state;
}

}  // namespace brute_force_detail

/// Exact maximum-weight matching by branching on each edge (include /
/// exclude). Intended for <= ~24 edges.
inline double brute_force_max_weight_matching(
    const std::vector<WeightedBipartiteEdge>& edges, std::size_t num_left,
    std::size_t num_right) {
  auto state = brute_force_detail::start_search(edges, num_left, num_right);
  return brute_force_detail::search_weight(state, 0);
}

/// Exact maximum-cardinality matching size by the same branching.
inline std::size_t brute_force_max_cardinality(
    const std::vector<WeightedBipartiteEdge>& edges, std::size_t num_left,
    std::size_t num_right) {
  auto state = brute_force_detail::start_search(edges, num_left, num_right);
  return brute_force_detail::search_cardinality(state, 0);
}

}  // namespace rdcn

#pragma once

// Bipartite edge coloring: partitions the edge set of a bipartite
// (multi)graph into Δ matchings (König's theorem). Substrate for the
// demand-oblivious rotor baseline (RotorNet [8] style): the switch cycles
// through the color classes, one matching per step, independent of demand.

#include <cstdint>
#include <vector>

namespace rdcn {

struct BipartiteEdge {
  std::int32_t left = 0;
  std::int32_t right = 0;
};

/// Returns color[k] in [0, num_colors) for each edge k, such that edges of
/// equal color form a matching, using exactly Δ = max degree colors.
/// Implements the classical alternating-path (Kempe chain) argument.
struct EdgeColoring {
  std::vector<std::int32_t> color;
  std::int32_t num_colors = 0;
};

EdgeColoring color_bipartite_edges(const std::vector<BipartiteEdge>& edges,
                                   std::size_t num_left, std::size_t num_right);

}  // namespace rdcn

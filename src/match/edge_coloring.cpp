#include "match/edge_coloring.hpp"

#include <algorithm>

namespace rdcn {

EdgeColoring color_bipartite_edges(const std::vector<BipartiteEdge>& edges,
                                   std::size_t num_left, std::size_t num_right) {
  EdgeColoring result;
  result.color.assign(edges.size(), -1);

  std::vector<std::int32_t> degree_left(num_left, 0), degree_right(num_right, 0);
  for (const auto& e : edges) {
    ++degree_left[static_cast<std::size_t>(e.left)];
    ++degree_right[static_cast<std::size_t>(e.right)];
  }
  std::int32_t delta = 0;
  for (std::int32_t d : degree_left) delta = std::max(delta, d);
  for (std::int32_t d : degree_right) delta = std::max(delta, d);
  result.num_colors = delta;
  if (delta == 0) return result;

  const auto n_colors = static_cast<std::size_t>(delta);
  // used_left[v][c] = edge index using color c at left vertex v (or -1).
  std::vector<std::vector<std::int64_t>> used_left(
      num_left, std::vector<std::int64_t>(n_colors, -1));
  std::vector<std::vector<std::int64_t>> used_right(
      num_right, std::vector<std::int64_t>(n_colors, -1));

  auto first_free = [n_colors](const std::vector<std::int64_t>& used) -> std::int32_t {
    for (std::size_t c = 0; c < n_colors; ++c) {
      if (used[c] == -1) return static_cast<std::int32_t>(c);
    }
    return -1;
  };

  for (std::size_t k = 0; k < edges.size(); ++k) {
    const auto left = static_cast<std::size_t>(edges[k].left);
    const auto right = static_cast<std::size_t>(edges[k].right);
    const std::int32_t a = first_free(used_left[left]);    // free at the left end
    const std::int32_t b = first_free(used_right[right]);  // free at the right end

    if (a != b) {
      // König/Kempe argument: follow the maximal alternating a/b path that
      // starts at `right` with an a-colored edge, then swap a<->b along it.
      // The path cannot end at `left` (a is free there), so after the swap
      // color a is free at both endpoints of edge k.
      std::vector<std::size_t> path;
      std::size_t vertex = right;
      bool vertex_is_right = true;
      std::int32_t want = a;
      while (true) {
        const auto& used_here = vertex_is_right ? used_right[vertex] : used_left[vertex];
        const std::int64_t next_edge = used_here[static_cast<std::size_t>(want)];
        if (next_edge == -1) break;
        path.push_back(static_cast<std::size_t>(next_edge));
        const auto& e = edges[static_cast<std::size_t>(next_edge)];
        vertex = vertex_is_right ? static_cast<std::size_t>(e.left)
                                 : static_cast<std::size_t>(e.right);
        vertex_is_right = !vertex_is_right;
        want = (want == a) ? b : a;
      }
      for (std::size_t e_idx : path) {
        const auto& e = edges[e_idx];
        const auto c = static_cast<std::size_t>(result.color[e_idx]);
        used_left[static_cast<std::size_t>(e.left)][c] = -1;
        used_right[static_cast<std::size_t>(e.right)][c] = -1;
      }
      for (std::size_t e_idx : path) {
        const auto& e = edges[e_idx];
        const std::int32_t swapped = (result.color[e_idx] == a) ? b : a;
        result.color[e_idx] = swapped;
        used_left[static_cast<std::size_t>(e.left)][static_cast<std::size_t>(swapped)] =
            static_cast<std::int64_t>(e_idx);
        used_right[static_cast<std::size_t>(e.right)][static_cast<std::size_t>(swapped)] =
            static_cast<std::int64_t>(e_idx);
      }
    }
    result.color[k] = a;
    used_left[left][static_cast<std::size_t>(a)] = static_cast<std::int64_t>(k);
    used_right[right][static_cast<std::size_t>(a)] = static_cast<std::int64_t>(k);
  }
  return result;
}

}  // namespace rdcn

#pragma once

// Reference implementation for the tests: the capacitated ("b-matching")
// generalization of the greedy stable matching, the rule
// StableMatchingScheduler's b-matching path runs in place. Each left/right
// endpoint may carry up to `capacity` simultaneous requests, while each
// physical edge (identified by the caller-supplied key) still carries at
// most one. This models ToR nodes with b lasers
// usable in parallel -- the online dynamic b-matching setting of
// Bienkowski et al. [46] that the paper cites as related work.
//
// The stability notion generalizes pointwise: a rejected request must find
// at a saturated endpoint (or on its occupied edge) only requests of
// priority at least its own.

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

namespace rdcn {

struct CapacitatedRequest {
  std::int32_t left = 0;
  std::int32_t right = 0;
  std::int64_t edge_key = -1;  ///< requests sharing a key exclude each other
};

/// Greedy accept in the given (priority) order subject to left/right
/// capacities and per-edge exclusivity. capacity >= 1.
inline std::vector<std::size_t> greedy_stable_bmatching(
    std::span<const CapacitatedRequest> requests, std::size_t num_left, std::size_t num_right,
    std::int32_t capacity) {
  std::vector<std::int32_t> left_used(num_left, 0);
  std::vector<std::int32_t> right_used(num_right, 0);
  std::unordered_set<std::int64_t> edges_used;
  std::vector<std::size_t> accepted;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& request = requests[i];
    if (left_used[static_cast<std::size_t>(request.left)] >= capacity) continue;
    if (right_used[static_cast<std::size_t>(request.right)] >= capacity) continue;
    if (request.edge_key >= 0 && edges_used.contains(request.edge_key)) continue;
    ++left_used[static_cast<std::size_t>(request.left)];
    ++right_used[static_cast<std::size_t>(request.right)];
    if (request.edge_key >= 0) edges_used.insert(request.edge_key);
    accepted.push_back(i);
  }
  return accepted;
}

/// Checks the generalized stability property of a selection produced for
/// the given priority order (requests sorted by decreasing priority):
/// capacities and edge-exclusivity hold, and every rejected request is
/// blocked by an earlier accepted request on a saturated endpoint or on
/// its own edge.
inline bool is_stable_bmatching(std::span<const CapacitatedRequest> requests,
                                std::span<const std::size_t> accepted, std::size_t num_left,
                                std::size_t num_right, std::int32_t capacity) {
  std::vector<std::int32_t> left_used(num_left, 0);
  std::vector<std::int32_t> right_used(num_right, 0);
  // For blocking checks we need the LAST (lowest-priority) occupant index
  // of each endpoint/edge.
  std::vector<std::size_t> left_last(num_left, 0);
  std::vector<std::size_t> right_last(num_right, 0);
  std::unordered_set<std::int64_t> edges_used;
  std::vector<bool> is_accepted(requests.size(), false);

  for (std::size_t idx : accepted) {
    if (idx >= requests.size()) return false;
    const auto& request = requests[idx];
    const auto left = static_cast<std::size_t>(request.left);
    const auto right = static_cast<std::size_t>(request.right);
    if (left_used[left] >= capacity || right_used[right] >= capacity) return false;
    if (request.edge_key >= 0 && !edges_used.insert(request.edge_key).second) return false;
    ++left_used[left];
    ++right_used[right];
    left_last[left] = std::max(left_last[left], idx);
    right_last[right] = std::max(right_last[right], idx);
    is_accepted[idx] = true;
  }

  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (is_accepted[i]) continue;
    const auto& request = requests[i];
    const auto left = static_cast<std::size_t>(request.left);
    const auto right = static_cast<std::size_t>(request.right);
    // Blocked legitimately iff: its edge is taken by an earlier request,
    // or one of its endpoints is saturated entirely by earlier requests.
    bool blocked = false;
    if (request.edge_key >= 0 && edges_used.contains(request.edge_key)) {
      // Find the owner; it must be earlier. Owners are accepted requests
      // with the same key -- scan accepted (small sets in practice).
      for (std::size_t idx : accepted) {
        if (requests[idx].edge_key == request.edge_key && idx < i) {
          blocked = true;
          break;
        }
      }
    }
    if (!blocked && left_used[left] >= capacity && left_last[left] < i) blocked = true;
    if (!blocked && right_used[right] >= capacity && right_last[right] < i) blocked = true;
    if (!blocked) return false;
  }
  return true;
}

}  // namespace rdcn

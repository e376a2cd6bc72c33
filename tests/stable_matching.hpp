#pragma once

// Reference implementation for the tests: greedy stable matching on
// bipartite conflict graphs (Section III-A).
//
// A matching M is stable w.r.t. symmetric priorities if every request not
// in M is blocked by some request in M that shares an endpoint and has
// priority at least as high. With symmetric (edge-weight) priorities the
// greedy algorithm -- scan requests from highest to lowest priority, accept
// whenever both endpoints are free -- produces a stable matching; this is
// the rule StableMatchingScheduler runs in place each scheduling round.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace rdcn {

/// One unit of work wanting to occupy (left, right) for the step.
struct MatchRequest {
  std::int32_t left = 0;   ///< e.g. transmitter index
  std::int32_t right = 0;  ///< e.g. receiver index
};

/// Greedily accepts requests in the given order (the caller sorts by
/// priority, highest first, with its own tie-breaking); a request is
/// accepted iff neither endpoint is taken by an earlier accepted request.
/// Returns the indices (into `requests`) of accepted requests, in order.
inline std::vector<std::size_t> greedy_stable_matching(
    std::span<const MatchRequest> requests, std::size_t num_left, std::size_t num_right) {
  std::vector<bool> left_busy(num_left, false);
  std::vector<bool> right_busy(num_right, false);
  std::vector<std::size_t> accepted;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto left = static_cast<std::size_t>(requests[i].left);
    const auto right = static_cast<std::size_t>(requests[i].right);
    if (!left_busy[left] && !right_busy[right]) {
      left_busy[left] = true;
      right_busy[right] = true;
      accepted.push_back(i);
    }
  }
  return accepted;
}

/// For every rejected request, finds the accepted request that blocks it:
/// the earliest accepted request (in priority order) sharing an endpoint.
/// result[i] == accepted index for rejected i, or SIZE_MAX for accepted
/// requests (they block themselves).
inline std::vector<std::size_t> blocking_witness(std::span<const MatchRequest> requests,
                                                 std::span<const std::size_t> accepted,
                                                 std::size_t num_left,
                                                 std::size_t num_right) {
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  // owner_of_left/right[x] = accepted request index occupying endpoint x.
  std::vector<std::size_t> owner_left(num_left, kNone);
  std::vector<std::size_t> owner_right(num_right, kNone);
  std::vector<bool> is_accepted(requests.size(), false);
  for (std::size_t idx : accepted) {
    is_accepted[idx] = true;
    owner_left[static_cast<std::size_t>(requests[idx].left)] = idx;
    owner_right[static_cast<std::size_t>(requests[idx].right)] = idx;
  }
  std::vector<std::size_t> witness(requests.size(), kNone);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (is_accepted[i]) continue;
    const std::size_t via_left = owner_left[static_cast<std::size_t>(requests[i].left)];
    const std::size_t via_right = owner_right[static_cast<std::size_t>(requests[i].right)];
    // Prefer the earlier (higher-priority) blocker; at least one must exist
    // when `accepted` came from greedy_stable_matching.
    witness[i] = std::min(via_left, via_right);
  }
  return witness;
}

/// Validates the defining property: `accepted` is a matching and every
/// rejected request conflicts with an accepted request of lower index
/// (i.e. priority at least as high under the caller's order).
inline bool is_stable_selection(std::span<const MatchRequest> requests,
                                std::span<const std::size_t> accepted,
                                std::size_t num_left, std::size_t num_right) {
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> owner_left(num_left, kNone);
  std::vector<std::size_t> owner_right(num_right, kNone);
  std::vector<bool> is_accepted(requests.size(), false);
  for (std::size_t idx : accepted) {
    if (idx >= requests.size()) return false;
    const auto left = static_cast<std::size_t>(requests[idx].left);
    const auto right = static_cast<std::size_t>(requests[idx].right);
    if (owner_left[left] != kNone || owner_right[right] != kNone) return false;  // not a matching
    owner_left[left] = idx;
    owner_right[right] = idx;
    is_accepted[idx] = true;
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (is_accepted[i]) continue;
    const std::size_t via_left = owner_left[static_cast<std::size_t>(requests[i].left)];
    const std::size_t via_right = owner_right[static_cast<std::size_t>(requests[i].right)];
    const std::size_t blocker = std::min(via_left, via_right);
    if (blocker == kNone || blocker > i) return false;  // no prior blocker: unstable
  }
  return true;
}

}  // namespace rdcn

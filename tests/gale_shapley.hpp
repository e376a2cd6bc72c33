#pragma once

// Reference implementation for the tests: Gale-Shapley deferred
// acceptance (the paper's reference [23]) on preference lists, the
// classical substrate the paper's symmetric-priority greedy specializes:
// with symmetric edge weights the proposer-optimal and receiver-optimal
// stable matchings coincide and the greedy of stable_matching.hpp computes
// them directly.

#include <cstdint>
#include <queue>
#include <vector>

namespace rdcn {

/// preferences_left[i] = ordered list of right-indices i prefers (best
/// first); analogously for preferences_right. Agents may have partial
/// lists; unlisted pairs are unacceptable.
struct StableMarriageInput {
  std::vector<std::vector<std::int32_t>> preferences_left;
  std::vector<std::vector<std::int32_t>> preferences_right;
};

/// match_of_left[i] = matched right index or -1; proposer (left) optimal.
struct StableMarriageResult {
  std::vector<std::int32_t> match_of_left;
  std::vector<std::int32_t> match_of_right;
};

namespace gale_shapley_detail {

/// rank[j][i] = position of left i in right j's list, or INT32_MAX.
inline std::vector<std::vector<std::int32_t>> build_ranks(
    const std::vector<std::vector<std::int32_t>>& preferences, std::size_t other_side) {
  std::vector<std::vector<std::int32_t>> ranks(preferences.size());
  for (std::size_t j = 0; j < preferences.size(); ++j) {
    ranks[j].assign(other_side, INT32_MAX);
    for (std::size_t pos = 0; pos < preferences[j].size(); ++pos) {
      ranks[j][static_cast<std::size_t>(preferences[j][pos])] =
          static_cast<std::int32_t>(pos);
    }
  }
  return ranks;
}

}  // namespace gale_shapley_detail

inline StableMarriageResult gale_shapley(const StableMarriageInput& input) {
  const std::size_t num_left = input.preferences_left.size();
  const std::size_t num_right = input.preferences_right.size();
  const auto right_rank = gale_shapley_detail::build_ranks(input.preferences_right, num_left);

  StableMarriageResult result;
  result.match_of_left.assign(num_left, -1);
  result.match_of_right.assign(num_right, -1);
  std::vector<std::size_t> next_proposal(num_left, 0);

  std::queue<std::int32_t> free_left;
  for (std::size_t i = 0; i < num_left; ++i) free_left.push(static_cast<std::int32_t>(i));

  while (!free_left.empty()) {
    const std::int32_t i = free_left.front();
    free_left.pop();
    const auto& prefs = input.preferences_left[static_cast<std::size_t>(i)];
    bool matched = false;
    while (next_proposal[static_cast<std::size_t>(i)] < prefs.size()) {
      const std::int32_t j = prefs[next_proposal[static_cast<std::size_t>(i)]++];
      const auto& ranks_j = right_rank[static_cast<std::size_t>(j)];
      if (ranks_j[static_cast<std::size_t>(i)] == INT32_MAX) continue;  // i unacceptable to j
      const std::int32_t current = result.match_of_right[static_cast<std::size_t>(j)];
      if (current == -1) {
        result.match_of_right[static_cast<std::size_t>(j)] = i;
        result.match_of_left[static_cast<std::size_t>(i)] = j;
        matched = true;
        break;
      }
      if (ranks_j[static_cast<std::size_t>(i)] < ranks_j[static_cast<std::size_t>(current)]) {
        // j trades up; the jilted proposer re-enters the pool.
        result.match_of_right[static_cast<std::size_t>(j)] = i;
        result.match_of_left[static_cast<std::size_t>(i)] = j;
        result.match_of_left[static_cast<std::size_t>(current)] = -1;
        free_left.push(current);
        matched = true;
        break;
      }
    }
    (void)matched;
  }
  return result;
}

/// True iff no blocking pair exists: a mutually acceptable (i, j) where i
/// prefers j to its match (or is unmatched) and j prefers i to its match.
inline bool is_stable_marriage(const StableMarriageInput& input,
                               const StableMarriageResult& result) {
  const std::size_t num_left = input.preferences_left.size();
  const std::size_t num_right = input.preferences_right.size();
  const auto left_rank = gale_shapley_detail::build_ranks(input.preferences_left, num_right);
  const auto right_rank = gale_shapley_detail::build_ranks(input.preferences_right, num_left);

  for (std::size_t i = 0; i < num_left; ++i) {
    for (std::int32_t j : input.preferences_left[i]) {
      if (right_rank[static_cast<std::size_t>(j)][i] == INT32_MAX) continue;
      const std::int32_t i_match = result.match_of_left[i];
      const std::int32_t j_match = result.match_of_right[static_cast<std::size_t>(j)];
      const bool i_prefers_j =
          i_match == -1 || left_rank[i][static_cast<std::size_t>(j)] <
                               left_rank[i][static_cast<std::size_t>(i_match)];
      const bool j_prefers_i =
          j_match == -1 ||
          right_rank[static_cast<std::size_t>(j)][i] <
              right_rank[static_cast<std::size_t>(j)][static_cast<std::size_t>(j_match)];
      if (i_prefers_j && j_prefers_i) return false;
    }
  }
  return true;
}

}  // namespace rdcn

// Tests for the matching substrate: greedy stable matching, Gale-Shapley,
// Hungarian max-weight matching, Hopcroft-Karp, and bipartite edge
// coloring -- each validated against brute-force oracles on random graphs.

#include <gtest/gtest.h>

#include <numeric>

#include "gale_shapley.hpp"
#include "match/brute_force.hpp"
#include "match/edge_coloring.hpp"
#include "match/hopcroft_karp.hpp"
#include "match/hungarian.hpp"
#include "match/stable.hpp"
#include "util/rng.hpp"

namespace rdcn {
namespace {

std::vector<WeightedBipartiteEdge> random_edges(Rng& rng, std::size_t num_left,
                                                std::size_t num_right, std::size_t count,
                                                bool integer_weights = true) {
  std::vector<WeightedBipartiteEdge> edges;
  for (std::size_t k = 0; k < count; ++k) {
    WeightedBipartiteEdge edge;
    edge.left = static_cast<std::int32_t>(rng.next_below(num_left));
    edge.right = static_cast<std::int32_t>(rng.next_below(num_right));
    edge.weight = integer_weights ? static_cast<double>(rng.next_int(1, 9))
                                  : rng.next_double(0.1, 9.0);
    edges.push_back(edge);
  }
  return edges;
}

// ---------------------------------------------------------------- stable --

TEST(GreedyStableMatching, AcceptsInOrderAndIsStable) {
  // Requests pre-sorted by priority; conflict structure forces rejections.
  const std::vector<MatchRequest> requests = {
      {0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 1},
  };
  const auto accepted = greedy_stable_matching(requests, 3, 2);
  EXPECT_EQ(accepted, (std::vector<std::size_t>{0, 3}));
  EXPECT_TRUE(is_stable_selection(requests, accepted, 3, 2));
}

TEST(GreedyStableMatching, EmptyInput) {
  EXPECT_TRUE(greedy_stable_matching({}, 4, 4).empty());
}

TEST(GreedyStableMatching, StabilityPropertyOnRandomInputs) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t num_left = 1 + rng.next_below(6);
    const std::size_t num_right = 1 + rng.next_below(6);
    std::vector<MatchRequest> requests;
    const std::size_t count = rng.next_below(12);
    for (std::size_t k = 0; k < count; ++k) {
      requests.push_back(MatchRequest{static_cast<std::int32_t>(rng.next_below(num_left)),
                                      static_cast<std::int32_t>(rng.next_below(num_right))});
    }
    const auto accepted = greedy_stable_matching(requests, num_left, num_right);
    EXPECT_TRUE(is_stable_selection(requests, accepted, num_left, num_right));
    // Every rejected request has a blocking witness of lower index.
    const auto witness = blocking_witness(requests, accepted, num_left, num_right);
    std::vector<bool> is_accepted(requests.size(), false);
    for (std::size_t idx : accepted) is_accepted[idx] = true;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (is_accepted[i]) continue;
      ASSERT_LT(witness[i], requests.size());
      EXPECT_LT(witness[i], i);
      const bool shares = requests[witness[i]].left == requests[i].left ||
                          requests[witness[i]].right == requests[i].right;
      EXPECT_TRUE(shares);
    }
  }
}

TEST(GreedyStableMatching, RejectsNonMatchingSelections) {
  const std::vector<MatchRequest> requests = {{0, 0}, {0, 1}};
  const std::vector<std::size_t> both = {0, 1};
  EXPECT_FALSE(is_stable_selection(requests, both, 1, 2));  // shares left 0
}

// ----------------------------------------------------------- gale-shapley --

TEST(GaleShapley, ClassicThreeByThree) {
  StableMarriageInput input;
  input.preferences_left = {{0, 1, 2}, {1, 0, 2}, {0, 1, 2}};
  input.preferences_right = {{1, 0, 2}, {0, 1, 2}, {0, 1, 2}};
  const auto result = gale_shapley(input);
  EXPECT_TRUE(is_stable_marriage(input, result));
  for (std::int32_t match : result.match_of_left) EXPECT_NE(match, -1);
}

TEST(GaleShapley, PartialListsLeaveUnmatched) {
  StableMarriageInput input;
  input.preferences_left = {{0}, {0}};  // both want only woman 0
  input.preferences_right = {{1, 0}};
  const auto result = gale_shapley(input);
  EXPECT_TRUE(is_stable_marriage(input, result));
  EXPECT_EQ(result.match_of_right[0], 1);  // she prefers 1
  EXPECT_EQ(result.match_of_left[0], -1);
}

TEST(GaleShapley, StableOnRandomPreferences) {
  Rng rng(23);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.next_below(6);
    const std::size_t m = 1 + rng.next_below(6);
    StableMarriageInput input;
    input.preferences_left.resize(n);
    input.preferences_right.resize(m);
    for (auto& prefs : input.preferences_left) {
      std::vector<std::int32_t> all(m);
      std::iota(all.begin(), all.end(), 0);
      rng.shuffle(all);
      all.resize(rng.next_below(m + 1));
      prefs = all;
    }
    for (auto& prefs : input.preferences_right) {
      std::vector<std::int32_t> all(n);
      std::iota(all.begin(), all.end(), 0);
      rng.shuffle(all);
      all.resize(rng.next_below(n + 1));
      prefs = all;
    }
    const auto result = gale_shapley(input);
    EXPECT_TRUE(is_stable_marriage(input, result)) << "trial " << trial;
  }
}

// -------------------------------------------------------------- hungarian --

TEST(Hungarian, KnownAssignment) {
  // Classic 3x3: min cost assignment.
  const std::vector<std::vector<double>> cost = {
      {4, 1, 3},
      {2, 0, 5},
      {3, 2, 2},
  };
  const auto assignment = min_cost_assignment(cost);
  double total = 0.0;
  for (std::size_t i = 0; i < 3; ++i) total += cost[i][static_cast<std::size_t>(assignment[i])];
  EXPECT_NEAR(total, 5.0, 1e-9);  // (0,1)+(1,0)+(2,2) = 1+2+2
}

TEST(Hungarian, MatchesBruteForceOnRandomGraphs) {
  Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t num_left = 1 + rng.next_below(5);
    const std::size_t num_right = 1 + rng.next_below(5);
    const auto edges = random_edges(rng, num_left, num_right, 1 + rng.next_below(10));
    const MatchingResult fast = max_weight_matching(edges, num_left, num_right);
    const double exact = brute_force_max_weight_matching(edges, num_left, num_right);
    EXPECT_NEAR(fast.total_weight, exact, 1e-7) << "trial " << trial;
    // Returned edges form a matching.
    std::vector<bool> left_used(num_left, false), right_used(num_right, false);
    for (std::size_t k : fast.edges) {
      EXPECT_FALSE(left_used[static_cast<std::size_t>(edges[k].left)]);
      EXPECT_FALSE(right_used[static_cast<std::size_t>(edges[k].right)]);
      left_used[static_cast<std::size_t>(edges[k].left)] = true;
      right_used[static_cast<std::size_t>(edges[k].right)] = true;
    }
  }
}

TEST(Hungarian, EmptyAndSingleton) {
  EXPECT_TRUE(max_weight_matching({}, 3, 3).edges.empty());
  const std::vector<WeightedBipartiteEdge> one = {{0, 0, 2.5}};
  const auto result = max_weight_matching(one, 1, 1);
  ASSERT_EQ(result.edges.size(), 1u);
  EXPECT_NEAR(result.total_weight, 2.5, 1e-12);
}

// ---------------------------------------------------------- hopcroft-karp --

TEST(HopcroftKarp, MatchesBruteForceCardinality) {
  Rng rng(41);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t num_left = 1 + rng.next_below(6);
    const std::size_t num_right = 1 + rng.next_below(6);
    const auto weighted = random_edges(rng, num_left, num_right, rng.next_below(12));
    std::vector<std::vector<std::int32_t>> adjacency(num_left);
    for (const auto& edge : weighted) {
      adjacency[static_cast<std::size_t>(edge.left)].push_back(edge.right);
    }
    const auto match = hopcroft_karp(adjacency, num_right);
    const std::size_t exact = brute_force_max_cardinality(weighted, num_left, num_right);
    EXPECT_EQ(matching_size(match), exact) << "trial " << trial;
  }
}

TEST(HopcroftKarp, PerfectMatchingOnIdentity) {
  std::vector<std::vector<std::int32_t>> adjacency(5);
  for (std::int32_t i = 0; i < 5; ++i) adjacency[static_cast<std::size_t>(i)] = {i};
  EXPECT_EQ(matching_size(hopcroft_karp(adjacency, 5)), 5u);
}

// ------------------------------------------------------------ edge coloring --

TEST(EdgeColoring, ProperWithDeltaColorsOnRandomGraphs) {
  Rng rng(53);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t num_left = 1 + rng.next_below(6);
    const std::size_t num_right = 1 + rng.next_below(6);
    std::vector<BipartiteEdge> edges;
    const std::size_t count = rng.next_below(15);
    std::vector<std::int32_t> deg_l(num_left, 0), deg_r(num_right, 0);
    for (std::size_t k = 0; k < count; ++k) {
      BipartiteEdge edge{static_cast<std::int32_t>(rng.next_below(num_left)),
                         static_cast<std::int32_t>(rng.next_below(num_right))};
      edges.push_back(edge);
      ++deg_l[static_cast<std::size_t>(edge.left)];
      ++deg_r[static_cast<std::size_t>(edge.right)];
    }
    std::int32_t delta = 0;
    for (auto d : deg_l) delta = std::max(delta, d);
    for (auto d : deg_r) delta = std::max(delta, d);

    const EdgeColoring coloring = color_bipartite_edges(edges, num_left, num_right);
    EXPECT_EQ(coloring.num_colors, delta) << "trial " << trial;
    EXPECT_TRUE(is_proper_edge_coloring(edges, coloring, num_left, num_right))
        << "trial " << trial;
    const auto matchings = coloring_to_matchings(coloring);
    std::size_t total = 0;
    for (const auto& matching : matchings) total += matching.size();
    EXPECT_EQ(total, edges.size());
  }
}

TEST(EdgeColoring, CompleteBipartiteUsesExactlyN) {
  std::vector<BipartiteEdge> edges;
  for (std::int32_t i = 0; i < 4; ++i) {
    for (std::int32_t j = 0; j < 4; ++j) edges.push_back(BipartiteEdge{i, j});
  }
  const EdgeColoring coloring = color_bipartite_edges(edges, 4, 4);
  EXPECT_EQ(coloring.num_colors, 4);
  EXPECT_TRUE(is_proper_edge_coloring(edges, coloring, 4, 4));
}

}  // namespace
}  // namespace rdcn

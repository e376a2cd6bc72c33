#pragma once

// Maximum-weight bipartite matching via the Hungarian algorithm (O(n^3)
// Jonker-Volgenant style with potentials). Substrate for the MaxWeight
// baseline scheduler, which transmits a maximum-weight matching per step
// (the classic crossbar-throughput policy of McKeown et al. [49]).
//
// The workhorse is HungarianWorkspace: a reusable, allocation-free (after
// first growth) solver over a caller-owned row-major cost matrix, so the
// per-round scheduling hot path can run it on the k_active x k_active
// submatrix of busy endpoints without touching the heap. The tests'
// vector-based wrappers (max_weight_matching, min_cost_assignment) live
// in tests/matching_reference.hpp.

#include <cstdint>
#include <vector>

namespace rdcn {

/// Reusable min-cost assignment solver. One instance per caller; internal
/// arrays grow to the high-water problem size once and are then reused, so
/// steady-state solve() calls perform zero heap allocations (the output
/// vector included, once at capacity).
class HungarianWorkspace {
 public:
  /// Minimum-cost assignment of every row to a distinct column on the
  /// rows x cols (rows <= cols) row-major matrix `cost`; cost[i*cols + j]
  /// may be any finite double. Writes the assigned column of each row into
  /// `row_to_col` (resized to rows). O(rows^2 * cols). Among equal-cost
  /// optima the tie-break is deterministic but unspecified.
  void solve(const double* cost, std::size_t rows, std::size_t cols,
             std::vector<std::int32_t>& row_to_col);

 private:
  std::vector<double> u_, v_, minv_;
  std::vector<std::size_t> p_, way_, free_cols_, used_cols_;
};

}  // namespace rdcn

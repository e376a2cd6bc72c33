#pragma once

// Two-phase dense tableau simplex with Dantzig pricing and a Bland's-rule
// fallback for anti-cycling. Written from scratch (no external solver is
// available offline); adequate for the few-thousand-nonzero LPs the
// reproduction needs. Returns primal variable values on optimality.

#include <cstddef>
#include <vector>

#include "lp/model.hpp"

namespace rdcn::lp {

enum class SolveStatus { Optimal, Infeasible, Unbounded, IterationLimit };

struct Solution {
  SolveStatus status = SolveStatus::IterationLimit;
  double objective = 0.0;            ///< in the model's sense (max or min)
  std::vector<double> values;        ///< per model variable
  std::size_t iterations = 0;
};

/// Pivots with tolerance 1e-9, switches from Dantzig to Bland pivoting
/// after 20000 iterations (guaranteeing termination on degenerate
/// problems) and gives up with IterationLimit after 200000.
Solution solve(const Model& model);

}  // namespace rdcn::lp

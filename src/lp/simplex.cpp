#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace rdcn::lp {

namespace {

constexpr std::size_t kMaxIterations = 200000;
constexpr double kTolerance = 1e-9;
/// Switch from Dantzig to Bland pivoting after this many iterations
/// (guarantees termination on degenerate problems).
constexpr std::size_t kBlandAfter = 20000;

/// Dense two-phase tableau. Columns: structural | slack/surplus |
/// artificial. Rows carry Ax = b with b >= 0; `basis[i]` is the basic
/// column of row i. The reduced-cost row is maintained incrementally.
class Tableau {
 public:
  explicit Tableau(const Model& model) {
    const std::size_t n = model.num_variables();
    const std::size_t m = model.num_constraints();
    // Normalized rows: coefficients over structural vars, relation, rhs>=0.
    struct Row {
      std::vector<double> a;
      Relation relation;
      double rhs;
    };
    std::vector<Row> rows;
    rows.reserve(m);
    for (const Constraint& constraint : model.constraints()) {
      Row row;
      row.a.assign(n, 0.0);
      for (const Term& term : constraint.terms) row.a[term.variable] += term.coefficient;
      row.relation = constraint.relation;
      row.rhs = constraint.rhs;
      if (row.rhs < 0) {
        for (double& coeff : row.a) coeff = -coeff;
        row.rhs = -row.rhs;
        if (row.relation == Relation::LessEq) {
          row.relation = Relation::GreaterEq;
        } else if (row.relation == Relation::GreaterEq) {
          row.relation = Relation::LessEq;
        }
      }
      rows.push_back(std::move(row));
    }

    // Column layout.
    num_structural_ = n;
    std::size_t num_slack = 0;
    for (const Row& row : rows) {
      if (row.relation != Relation::Equal) ++num_slack;
    }
    std::size_t num_artificial = 0;
    for (const Row& row : rows) {
      if (row.relation != Relation::LessEq) ++num_artificial;
    }
    first_artificial_ = n + num_slack;
    num_columns_ = n + num_slack + num_artificial;

    a_.assign(m, std::vector<double>(num_columns_, 0.0));
    b_.assign(m, 0.0);
    basis_.assign(m, 0);

    std::size_t slack_cursor = n;
    std::size_t artificial_cursor = first_artificial_;
    for (std::size_t i = 0; i < m; ++i) {
      std::copy(rows[i].a.begin(), rows[i].a.end(), a_[i].begin());
      b_[i] = rows[i].rhs;
      switch (rows[i].relation) {
        case Relation::LessEq:
          a_[i][slack_cursor] = 1.0;
          basis_[i] = slack_cursor++;
          break;
        case Relation::GreaterEq:
          a_[i][slack_cursor] = -1.0;
          ++slack_cursor;
          a_[i][artificial_cursor] = 1.0;
          basis_[i] = artificial_cursor++;
          break;
        case Relation::Equal:
          a_[i][artificial_cursor] = 1.0;
          basis_[i] = artificial_cursor++;
          break;
      }
    }

    // Structural costs in minimization sense.
    cost_.assign(num_columns_, 0.0);
    const double sign = model.maximize() ? -1.0 : 1.0;
    for (std::size_t j = 0; j < n; ++j) cost_[j] = sign * model.objective()[j];
  }

  SolveStatus run(Solution& solution, bool maximize) {
    // ---- Phase 1: minimize the sum of artificials. ----
    if (first_artificial_ < num_columns_) {
      reduced_.assign(num_columns_, 0.0);
      objective_value_ = 0.0;
      for (std::size_t j = first_artificial_; j < num_columns_; ++j) reduced_[j] = 1.0;
      for (std::size_t i = 0; i < a_.size(); ++i) {
        if (basis_[i] >= first_artificial_) {
          for (std::size_t j = 0; j < num_columns_; ++j) reduced_[j] -= a_[i][j];
          objective_value_ -= b_[i];
        }
      }
      const SolveStatus phase1 = iterate(solution, /*allow_artificial=*/true);
      if (phase1 != SolveStatus::Optimal) return phase1;
      if (-objective_value_ > 1e-7) return SolveStatus::Infeasible;
      drive_out_artificials();
    }

    // ---- Phase 2: minimize the real cost over the feasible basis. ----
    reduced_ = cost_;
    objective_value_ = 0.0;
    for (std::size_t i = 0; i < a_.size(); ++i) {
      const double basic_cost = cost_[basis_[i]];
      if (basic_cost == 0.0) continue;
      for (std::size_t j = 0; j < num_columns_; ++j) reduced_[j] -= basic_cost * a_[i][j];
      objective_value_ -= basic_cost * b_[i];
    }
    const SolveStatus phase2 = iterate(solution, /*allow_artificial=*/false);
    if (phase2 != SolveStatus::Optimal) return phase2;

    solution.values.assign(num_structural_, 0.0);
    for (std::size_t i = 0; i < a_.size(); ++i) {
      if (basis_[i] < num_structural_) solution.values[basis_[i]] = b_[i];
    }
    const double min_objective = -objective_value_;
    solution.objective = maximize ? -min_objective : min_objective;
    return SolveStatus::Optimal;
  }

 private:
  void pivot(std::size_t row, std::size_t col) {
    const double pivot_value = a_[row][col];
    for (double& coeff : a_[row]) coeff /= pivot_value;
    b_[row] /= pivot_value;
    for (std::size_t i = 0; i < a_.size(); ++i) {
      if (i == row) continue;
      const double factor = a_[i][col];
      if (factor == 0.0) continue;
      for (std::size_t j = 0; j < num_columns_; ++j) a_[i][j] -= factor * a_[row][j];
      a_[i][col] = 0.0;  // cancel rounding residue on the pivot column
      b_[i] -= factor * b_[row];
    }
    const double reduced_factor = reduced_[col];
    if (reduced_factor != 0.0) {
      for (std::size_t j = 0; j < num_columns_; ++j) {
        reduced_[j] -= reduced_factor * a_[row][j];
      }
      reduced_[col] = 0.0;
      objective_value_ -= reduced_factor * b_[row];
    }
    basis_[row] = col;
  }

  SolveStatus iterate(Solution& solution, bool allow_artificial) {
    const std::size_t limit = allow_artificial ? num_columns_ : first_artificial_;
    while (true) {
      if (solution.iterations >= kMaxIterations) return SolveStatus::IterationLimit;
      const bool bland = solution.iterations >= kBlandAfter;

      // Entering column: most negative reduced cost (or Bland: first).
      std::size_t entering = num_columns_;
      double best = -kTolerance;
      for (std::size_t j = 0; j < limit; ++j) {
        if (reduced_[j] < best) {
          entering = j;
          if (bland) break;
          best = reduced_[j];
        }
      }
      if (entering == num_columns_) return SolveStatus::Optimal;

      // Ratio test; prefer larger pivots among (near-)ties, and Bland's
      // smallest-basis-index rule when anti-cycling.
      std::size_t leaving = a_.size();
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < a_.size(); ++i) {
        const double coeff = a_[i][entering];
        if (coeff <= kTolerance) continue;
        const double ratio = b_[i] / coeff;
        const bool strictly_better = ratio < best_ratio - kTolerance;
        const bool tie = std::abs(ratio - best_ratio) <= kTolerance;
        bool take = false;
        if (leaving == a_.size() || strictly_better) {
          take = true;
        } else if (tie) {
          take = bland ? basis_[i] < basis_[leaving]
                       : coeff > a_[leaving][entering];
        }
        if (take) {
          leaving = i;
          best_ratio = std::min(best_ratio, ratio);
        }
      }
      if (leaving == a_.size()) return SolveStatus::Unbounded;

      pivot(leaving, entering);
      ++solution.iterations;
    }
  }

  /// After phase 1, swap any artificial still in the basis (at value 0)
  /// for a non-artificial column, or leave it pinned when its row is
  /// redundant (phase 2 forbids artificial entering columns anyway).
  void drive_out_artificials() {
    for (std::size_t i = 0; i < a_.size(); ++i) {
      if (basis_[i] < first_artificial_) continue;
      for (std::size_t j = 0; j < first_artificial_; ++j) {
        if (std::abs(a_[i][j]) > 1e-7) {
          pivot(i, j);
          break;
        }
      }
    }
  }

  std::size_t num_structural_ = 0;
  std::size_t first_artificial_ = 0;
  std::size_t num_columns_ = 0;
  std::vector<std::vector<double>> a_;
  std::vector<double> b_;
  std::vector<std::size_t> basis_;
  std::vector<double> cost_;  ///< phase-2 costs (minimization sense)
  std::vector<double> reduced_;
  double objective_value_ = 0.0;  ///< negative of current objective
};

}  // namespace

Solution solve(const Model& model) {
  Solution solution;
  if (model.num_constraints() == 0) {
    // With x >= 0 and no rows, the optimum is at 0 unless some coefficient
    // improves without bound.
    solution.values.assign(model.num_variables(), 0.0);
    for (std::size_t j = 0; j < model.num_variables(); ++j) {
      const double c = model.objective()[j];
      if ((model.maximize() && c > 0) || (!model.maximize() && c < 0)) {
        solution.status = SolveStatus::Unbounded;
        return solution;
      }
    }
    solution.status = SolveStatus::Optimal;
    solution.objective = 0.0;
    return solution;
  }
  Tableau tableau(model);
  solution.status = tableau.run(solution, model.maximize());
  return solution;
}

}  // namespace rdcn::lp

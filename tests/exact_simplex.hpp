#pragma once

// Exact LP solving over rational arithmetic: a two-phase tableau simplex
// with Bland's rule (guaranteed termination) and zero tolerances. Used to
// produce CERTIFICATE-GRADE values of the paper's LPs on small instances:
// with integer packet weights and rational eps, the optimum of Figure 3's
// program P -- and hence the lower bound on OPT -- is an exact rational,
// and the dual-witness inequality D/2 <= OPT can be checked with no
// floating-point slack at all.
//
// Rationals can overflow on long pivot chains; the solver reports
// ExactStatus::Overflow in that case (callers fall back to the double
// solver). A reference for the tests; the library solves with lp/simplex.

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "util/rational.hpp"

namespace rdcn::lp {

enum class ExactRelation { LessEq, GreaterEq, Equal };

struct ExactTerm {
  std::size_t variable = 0;
  Rational coefficient;
};

class ExactModel {
 public:
  std::size_t add_variable(Rational objective_coefficient);
  void add_constraint(std::vector<ExactTerm> terms, ExactRelation relation, Rational rhs);
  void set_maximize(bool maximize) noexcept { maximize_ = maximize; }
  bool maximize() const noexcept { return maximize_; }

  std::size_t num_variables() const noexcept { return objective_.size(); }
  std::size_t num_constraints() const noexcept { return constraints_.size(); }
  const std::vector<Rational>& objective() const noexcept { return objective_; }

  struct Constraint {
    std::vector<ExactTerm> terms;
    ExactRelation relation;
    Rational rhs;
  };
  const std::vector<Constraint>& constraints() const noexcept { return constraints_; }

  /// Exact feasibility check of an assignment.
  bool is_feasible(const std::vector<Rational>& values) const;
  Rational objective_value(const std::vector<Rational>& values) const;

 private:
  std::vector<Rational> objective_;
  std::vector<Constraint> constraints_;
  bool maximize_ = false;
};

enum class ExactStatus { Optimal, Infeasible, Unbounded, IterationLimit, Overflow };

struct ExactSolution {
  ExactStatus status = ExactStatus::IterationLimit;
  Rational objective;
  std::vector<Rational> values;
  std::size_t iterations = 0;
};

inline std::size_t ExactModel::add_variable(Rational objective_coefficient) {
  objective_.push_back(objective_coefficient);
  return objective_.size() - 1;
}

inline void ExactModel::add_constraint(std::vector<ExactTerm> terms,
                                       ExactRelation relation, Rational rhs) {
  for (const ExactTerm& term : terms) {
    if (term.variable >= objective_.size()) {
      throw std::out_of_range("constraint references unknown variable");
    }
  }
  constraints_.push_back(Constraint{std::move(terms), relation, rhs});
}

inline bool ExactModel::is_feasible(const std::vector<Rational>& values) const {
  for (const Rational& v : values) {
    if (v.is_negative()) return false;
  }
  for (const Constraint& constraint : constraints_) {
    Rational lhs(0);
    for (const ExactTerm& term : constraint.terms) {
      lhs += term.coefficient * values.at(term.variable);
    }
    switch (constraint.relation) {
      case ExactRelation::LessEq:
        if (lhs > constraint.rhs) return false;
        break;
      case ExactRelation::GreaterEq:
        if (lhs < constraint.rhs) return false;
        break;
      case ExactRelation::Equal:
        if (!(lhs == constraint.rhs)) return false;
        break;
    }
  }
  return true;
}

inline Rational ExactModel::objective_value(const std::vector<Rational>& values) const {
  Rational total(0);
  for (std::size_t v = 0; v < objective_.size(); ++v) {
    total += objective_[v] * values.at(v);
  }
  return total;
}

namespace exact_detail {

/// Dense rational tableau, Bland's rule only (termination certain, no
/// tolerances). Mirrors the double solver's structure.
class ExactTableau {
 public:
  explicit ExactTableau(const ExactModel& model) {
    const std::size_t n = model.num_variables();
    const std::size_t m = model.num_constraints();

    struct Row {
      std::vector<Rational> a;
      ExactRelation relation;
      Rational rhs;
    };
    std::vector<Row> rows;
    rows.reserve(m);
    for (const auto& constraint : model.constraints()) {
      Row row;
      row.a.assign(n, Rational(0));
      for (const ExactTerm& term : constraint.terms) {
        row.a[term.variable] += term.coefficient;
      }
      row.relation = constraint.relation;
      row.rhs = constraint.rhs;
      if (row.rhs.is_negative()) {
        for (Rational& coeff : row.a) coeff = -coeff;
        row.rhs = -row.rhs;
        if (row.relation == ExactRelation::LessEq) {
          row.relation = ExactRelation::GreaterEq;
        } else if (row.relation == ExactRelation::GreaterEq) {
          row.relation = ExactRelation::LessEq;
        }
      }
      rows.push_back(std::move(row));
    }

    num_structural_ = n;
    std::size_t num_slack = 0, num_artificial = 0;
    for (const Row& row : rows) {
      if (row.relation != ExactRelation::Equal) ++num_slack;
      if (row.relation != ExactRelation::LessEq) ++num_artificial;
    }
    first_artificial_ = n + num_slack;
    num_columns_ = first_artificial_ + num_artificial;

    a_.assign(m, std::vector<Rational>(num_columns_, Rational(0)));
    b_.assign(m, Rational(0));
    basis_.assign(m, 0);

    std::size_t slack_cursor = n;
    std::size_t artificial_cursor = first_artificial_;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) a_[i][j] = rows[i].a[j];
      b_[i] = rows[i].rhs;
      switch (rows[i].relation) {
        case ExactRelation::LessEq:
          a_[i][slack_cursor] = Rational(1);
          basis_[i] = slack_cursor++;
          break;
        case ExactRelation::GreaterEq:
          a_[i][slack_cursor] = Rational(-1);
          ++slack_cursor;
          a_[i][artificial_cursor] = Rational(1);
          basis_[i] = artificial_cursor++;
          break;
        case ExactRelation::Equal:
          a_[i][artificial_cursor] = Rational(1);
          basis_[i] = artificial_cursor++;
          break;
      }
    }

    cost_.assign(num_columns_, Rational(0));
    for (std::size_t j = 0; j < n; ++j) {
      cost_[j] = model.maximize() ? -model.objective()[j] : model.objective()[j];
    }
  }

  ExactStatus run(ExactSolution& solution, bool maximize, std::size_t max_iterations) {
    if (first_artificial_ < num_columns_) {
      reduced_.assign(num_columns_, Rational(0));
      objective_value_ = Rational(0);
      for (std::size_t j = first_artificial_; j < num_columns_; ++j) {
        reduced_[j] = Rational(1);
      }
      for (std::size_t i = 0; i < a_.size(); ++i) {
        if (basis_[i] >= first_artificial_) {
          for (std::size_t j = 0; j < num_columns_; ++j) reduced_[j] -= a_[i][j];
          objective_value_ -= b_[i];
        }
      }
      const ExactStatus phase1 = iterate(solution, true, max_iterations);
      if (phase1 != ExactStatus::Optimal) return phase1;
      if ((-objective_value_) > Rational(0)) return ExactStatus::Infeasible;
      drive_out_artificials();
    }

    reduced_ = cost_;
    objective_value_ = Rational(0);
    for (std::size_t i = 0; i < a_.size(); ++i) {
      const Rational basic_cost = cost_[basis_[i]];
      if (basic_cost.is_zero()) continue;
      for (std::size_t j = 0; j < num_columns_; ++j) {
        reduced_[j] -= basic_cost * a_[i][j];
      }
      objective_value_ -= basic_cost * b_[i];
    }
    const ExactStatus phase2 = iterate(solution, false, max_iterations);
    if (phase2 != ExactStatus::Optimal) return phase2;

    solution.values.assign(num_structural_, Rational(0));
    for (std::size_t i = 0; i < a_.size(); ++i) {
      if (basis_[i] < num_structural_) solution.values[basis_[i]] = b_[i];
    }
    const Rational min_objective = -objective_value_;
    solution.objective = maximize ? -min_objective : min_objective;
    return ExactStatus::Optimal;
  }

 private:
  void pivot(std::size_t row, std::size_t col) {
    const Rational pivot_value = a_[row][col];
    for (Rational& coeff : a_[row]) coeff /= pivot_value;
    b_[row] /= pivot_value;
    for (std::size_t i = 0; i < a_.size(); ++i) {
      if (i == row) continue;
      const Rational factor = a_[i][col];
      if (factor.is_zero()) continue;
      for (std::size_t j = 0; j < num_columns_; ++j) {
        a_[i][j] -= factor * a_[row][j];
      }
      b_[i] -= factor * b_[row];
    }
    const Rational reduced_factor = reduced_[col];
    if (!reduced_factor.is_zero()) {
      for (std::size_t j = 0; j < num_columns_; ++j) {
        reduced_[j] -= reduced_factor * a_[row][j];
      }
      objective_value_ -= reduced_factor * b_[row];
    }
    basis_[row] = col;
  }

  ExactStatus iterate(ExactSolution& solution, bool allow_artificial,
                      std::size_t max_iterations) {
    const std::size_t limit = allow_artificial ? num_columns_ : first_artificial_;
    while (true) {
      if (solution.iterations >= max_iterations) return ExactStatus::IterationLimit;

      // Bland: first column with negative reduced cost.
      std::size_t entering = num_columns_;
      for (std::size_t j = 0; j < limit; ++j) {
        if (reduced_[j].is_negative()) {
          entering = j;
          break;
        }
      }
      if (entering == num_columns_) return ExactStatus::Optimal;

      // Bland ratio test: minimal ratio, ties by smallest basis index.
      std::size_t leaving = a_.size();
      Rational best_ratio(0);
      for (std::size_t i = 0; i < a_.size(); ++i) {
        if (!(a_[i][entering] > Rational(0))) continue;
        const Rational ratio = b_[i] / a_[i][entering];
        if (leaving == a_.size() || ratio < best_ratio ||
            (ratio == best_ratio && basis_[i] < basis_[leaving])) {
          leaving = i;
          best_ratio = ratio;
        }
      }
      if (leaving == a_.size()) return ExactStatus::Unbounded;

      pivot(leaving, entering);
      ++solution.iterations;
    }
  }

  void drive_out_artificials() {
    for (std::size_t i = 0; i < a_.size(); ++i) {
      if (basis_[i] < first_artificial_) continue;
      for (std::size_t j = 0; j < first_artificial_; ++j) {
        if (!a_[i][j].is_zero()) {
          pivot(i, j);
          break;
        }
      }
    }
  }

  std::size_t num_structural_ = 0;
  std::size_t first_artificial_ = 0;
  std::size_t num_columns_ = 0;
  std::vector<std::vector<Rational>> a_;
  std::vector<Rational> b_;
  std::vector<std::size_t> basis_;
  std::vector<Rational> cost_;
  std::vector<Rational> reduced_;
  Rational objective_value_;
};

}  // namespace exact_detail

inline ExactSolution solve_exact(const ExactModel& model,
                                 std::size_t max_iterations = 100000) {
  ExactSolution solution;
  if (model.num_constraints() == 0) {
    solution.values.assign(model.num_variables(), Rational(0));
    for (std::size_t j = 0; j < model.num_variables(); ++j) {
      const Rational& c = model.objective()[j];
      if ((model.maximize() && c > Rational(0)) ||
          (!model.maximize() && c.is_negative())) {
        solution.status = ExactStatus::Unbounded;
        return solution;
      }
    }
    solution.status = ExactStatus::Optimal;
    return solution;
  }
  try {
    exact_detail::ExactTableau tableau(model);
    solution.status = tableau.run(solution, model.maximize(), max_iterations);
  } catch (const RationalOverflow&) {
    solution.status = ExactStatus::Overflow;
  }
  return solution;
}

}  // namespace rdcn::lp

#pragma once

// Exact-rational builder for the paper's primal LP (Figure 3): with
// integer packet weights and rational eps = num/den, every coefficient of
// P is rational (the capacity budget is den/(2*den + num)), so its optimum
// is an exact rational lower bound on OPT. Combined with the exact dual
// witness (exact_certificate.hpp) this lets the tests verify the
// inequality chain of Lemmas 3-5 with zero floating-point slack.

#include <cmath>
#include <stdexcept>
#include <string>

#include "exact_simplex.hpp"
#include "lp/paper_lps.hpp"
#include "net/instance.hpp"

namespace rdcn {

struct ExactEps {
  std::int64_t num = 1;
  std::int64_t den = 1;

  Rational value() const { return Rational(num, den); }
  /// 1 / (2 + eps) as an exact rational.
  Rational budget() const { return Rational(den, 2 * den + num); }
};

namespace exact_detail {

inline std::int64_t integer_weight(const Packet& packet) {
  const double rounded = std::floor(packet.weight);
  if (rounded != packet.weight || std::abs(packet.weight) > 1e15) {
    throw std::invalid_argument("exact LP requires integer packet weights");
  }
  return static_cast<std::int64_t>(rounded);
}

}  // namespace exact_detail

/// Builds Figure 3's program P with exact coefficients. Requires integer
/// packet weights. horizon = 0 derives the feasibility horizon.
inline lp::ExactModel build_primal_lp_exact(const Instance& instance, ExactEps eps,
                                            Time horizon = 0) {
  if (eps.num <= 0 || eps.den <= 0) throw std::invalid_argument("eps must be positive");
  const Topology& topology = instance.topology();
  if (horizon <= 0) {
    horizon = default_lp_horizon(instance, eps.value().to_double());
  }
  const Rational budget = eps.budget();

  lp::ExactModel model;
  model.set_maximize(false);

  std::vector<std::vector<lp::ExactTerm>> t_rows(
      static_cast<std::size_t>(topology.num_transmitters()) *
      static_cast<std::size_t>(horizon + 1));
  std::vector<std::vector<lp::ExactTerm>> r_rows(
      static_cast<std::size_t>(topology.num_receivers()) *
      static_cast<std::size_t>(horizon + 1));
  const auto key = [horizon](NodeIndex node, Time tau) {
    return static_cast<std::size_t>(node) * static_cast<std::size_t>(horizon + 1) +
           static_cast<std::size_t>(tau);
  };

  for (std::size_t i = 0; i < instance.num_packets(); ++i) {
    const Packet& packet = instance.packets()[i];
    const Rational weight(exact_detail::integer_weight(packet));
    std::vector<lp::ExactTerm> completeness;

    for (EdgeIndex e : topology.candidate_edges(packet.source, packet.destination)) {
      const ReconfigEdge& edge = topology.edge(e);
      const Rational usage(static_cast<std::int64_t>(edge.delay));
      const Rational total_delay(static_cast<std::int64_t>(topology.total_edge_delay(e)));
      for (Time tau = packet.arrival; tau <= horizon; ++tau) {
        const Rational latency =
            weight * (Rational(static_cast<std::int64_t>(tau - packet.arrival)) + total_delay);
        const std::size_t var = model.add_variable(latency);
        completeness.push_back(lp::ExactTerm{var, Rational(1)});
        t_rows[key(edge.transmitter, tau)].push_back(lp::ExactTerm{var, usage});
        r_rows[key(edge.receiver, tau)].push_back(lp::ExactTerm{var, usage});
      }
    }
    if (auto direct = topology.fixed_link_delay(packet.source, packet.destination)) {
      const std::size_t var =
          model.add_variable(weight * Rational(static_cast<std::int64_t>(*direct)));
      completeness.push_back(lp::ExactTerm{var, Rational(1)});
    }
    if (completeness.empty()) throw std::logic_error("packet without any route");
    model.add_constraint(std::move(completeness), lp::ExactRelation::GreaterEq, Rational(1));
  }

  for (auto& row : t_rows) {
    if (!row.empty()) model.add_constraint(std::move(row), lp::ExactRelation::LessEq, budget);
  }
  for (auto& row : r_rows) {
    if (!row.empty()) model.add_constraint(std::move(row), lp::ExactRelation::LessEq, budget);
  }
  return model;
}

/// Solves P exactly; throws std::runtime_error unless the solver reaches
/// optimality (including on rational overflow).
inline Rational exact_lp_opt(const Instance& instance, ExactEps eps, Time horizon = 0) {
  const lp::ExactModel model = build_primal_lp_exact(instance, eps, horizon);
  const lp::ExactSolution solution = lp::solve_exact(model);
  if (solution.status != lp::ExactStatus::Optimal) {
    throw std::runtime_error("exact LP did not reach optimality (status " +
                             std::to_string(static_cast<int>(solution.status)) + ")");
  }
  return solution.objective;
}

}  // namespace rdcn

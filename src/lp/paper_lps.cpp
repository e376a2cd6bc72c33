#include "lp/paper_lps.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace rdcn {

namespace {
constexpr std::size_t kNoVar = std::numeric_limits<std::size_t>::max();
}

Time default_lp_horizon(const Instance& instance, double eps) {
  Time max_arrival = 1;
  for (const Packet& p : instance.packets()) max_arrival = std::max(max_arrival, p.arrival);
  Delay max_delay = 1;
  for (EdgeIndex e = 0; e < instance.topology().num_edges(); ++e) {
    max_delay = std::max(max_delay, instance.topology().edge(e).delay);
  }
  const double serial_steps =
      (2.0 + eps) * static_cast<double>(instance.num_packets()) *
      static_cast<double>(max_delay);
  return max_arrival + static_cast<Time>(std::ceil(serial_steps)) + 1;
}

PrimalLp build_primal_lp(const Instance& instance, const PaperLpOptions& options) {
  const Topology& topology = instance.topology();
  PrimalLp result;
  result.horizon = options.horizon > 0 ? options.horizon
                                       : default_lp_horizon(instance, options.eps);
  const double budget = 1.0 / (2.0 + options.eps);

  lp::Model& model = result.model;
  model.set_maximize(false);
  result.y_index.assign(instance.num_packets(), kNoVar);

  // Capacity rows, keyed (endpoint, tau); built sparsely as terms appear.
  std::vector<std::vector<lp::Term>> t_rows(
      static_cast<std::size_t>(topology.num_transmitters()) *
      static_cast<std::size_t>(result.horizon + 1));
  std::vector<std::vector<lp::Term>> r_rows(
      static_cast<std::size_t>(topology.num_receivers()) *
      static_cast<std::size_t>(result.horizon + 1));
  const auto t_key = [&](NodeIndex t, Time tau) {
    return static_cast<std::size_t>(t) * static_cast<std::size_t>(result.horizon + 1) +
           static_cast<std::size_t>(tau);
  };
  const auto r_key = [&](NodeIndex r, Time tau) {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(result.horizon + 1) +
           static_cast<std::size_t>(tau);
  };

  for (std::size_t i = 0; i < instance.num_packets(); ++i) {
    const Packet& packet = instance.packets()[i];
    std::vector<lp::Term> completeness;

    for (EdgeIndex e : topology.pair_edges(packet.source, packet.destination)) {
      const ReconfigEdge& edge = topology.edge(e);
      const double total_delay = static_cast<double>(topology.total_edge_delay(e));
      for (Time tau = packet.arrival; tau <= result.horizon; ++tau) {
        const double latency =
            packet.weight * (static_cast<double>(tau - packet.arrival) + total_delay);
        const std::size_t var = model.add_variable(
            latency, "x_p" + std::to_string(i) + "_e" + std::to_string(e) + "_t" +
                         std::to_string(tau));
        result.x_vars.push_back(PrimalLp::XVar{packet.id, e, tau});
        result.x_indices.push_back(var);
        completeness.push_back(lp::Term{var, 1.0});
        const double usage = static_cast<double>(edge.delay);
        t_rows[t_key(edge.transmitter, tau)].push_back(lp::Term{var, usage});
        r_rows[r_key(edge.receiver, tau)].push_back(lp::Term{var, usage});
      }
    }

    if (auto direct = topology.fixed_link_delay(packet.source, packet.destination)) {
      const std::size_t var = model.add_variable(
          packet.weight * static_cast<double>(*direct), "y_p" + std::to_string(i));
      result.y_index[i] = var;
      completeness.push_back(lp::Term{var, 1.0});
    }

    if (completeness.empty()) {
      throw std::logic_error("packet without any route in the LP");
    }
    model.add_constraint(std::move(completeness), lp::Relation::GreaterEq, 1.0);
  }

  for (auto& row : t_rows) {
    if (!row.empty()) model.add_constraint(std::move(row), lp::Relation::LessEq, budget);
  }
  for (auto& row : r_rows) {
    if (!row.empty()) model.add_constraint(std::move(row), lp::Relation::LessEq, budget);
  }
  return result;
}

DualLp build_dual_lp(const Instance& instance, const PaperLpOptions& options) {
  const Topology& topology = instance.topology();
  DualLp result;
  result.horizon = options.horizon > 0 ? options.horizon
                                       : default_lp_horizon(instance, options.eps);
  const double budget = 1.0 / (2.0 + options.eps);

  lp::Model& model = result.model;
  model.set_maximize(true);

  result.alpha_index.resize(instance.num_packets());
  for (std::size_t i = 0; i < instance.num_packets(); ++i) {
    result.alpha_index[i] = model.add_variable(1.0, "alpha_p" + std::to_string(i));
  }
  // beta variables are created lazily: only (endpoint, tau) pairs that
  // appear in some constraint can be positive at the optimum anyway.
  result.beta_t_index.assign(static_cast<std::size_t>(topology.num_transmitters()),
                             std::vector<std::size_t>(
                                 static_cast<std::size_t>(result.horizon + 1), kNoVar));
  result.beta_r_index.assign(static_cast<std::size_t>(topology.num_receivers()),
                             std::vector<std::size_t>(
                                 static_cast<std::size_t>(result.horizon + 1), kNoVar));
  auto beta_t = [&](NodeIndex t, Time tau) {
    auto& slot = result.beta_t_index[static_cast<std::size_t>(t)][static_cast<std::size_t>(tau)];
    if (slot == kNoVar) {
      slot = model.add_variable(-budget,
                                "beta_t" + std::to_string(t) + "_" + std::to_string(tau));
    }
    return slot;
  };
  auto beta_r = [&](NodeIndex r, Time tau) {
    auto& slot = result.beta_r_index[static_cast<std::size_t>(r)][static_cast<std::size_t>(tau)];
    if (slot == kNoVar) {
      slot = model.add_variable(-budget,
                                "beta_r" + std::to_string(r) + "_" + std::to_string(tau));
    }
    return slot;
  };

  for (std::size_t i = 0; i < instance.num_packets(); ++i) {
    const Packet& packet = instance.packets()[i];
    for (EdgeIndex e : topology.pair_edges(packet.source, packet.destination)) {
      const ReconfigEdge& edge = topology.edge(e);
      const double d = static_cast<double>(edge.delay);
      const double total_delay = static_cast<double>(topology.total_edge_delay(e));
      for (Time tau = packet.arrival; tau <= result.horizon; ++tau) {
        std::vector<lp::Term> terms;
        terms.push_back(lp::Term{result.alpha_index[i], 1.0});
        terms.push_back(lp::Term{beta_t(edge.transmitter, tau), -d});
        terms.push_back(lp::Term{beta_r(edge.receiver, tau), -d});
        const double rhs =
            packet.weight * (static_cast<double>(tau - packet.arrival) + total_delay);
        model.add_constraint(std::move(terms), lp::Relation::LessEq, rhs);
      }
    }
    if (auto direct = topology.fixed_link_delay(packet.source, packet.destination)) {
      model.add_constraint({lp::Term{result.alpha_index[i], 1.0}}, lp::Relation::LessEq,
                           packet.weight * static_cast<double>(*direct));
    }
  }
  return result;
}

double lp_opt_lower_bound(const Instance& instance, double eps, Time horizon) {
  PrimalLp primal = build_primal_lp(instance, PaperLpOptions{eps, horizon});
  const lp::Solution solution = lp::solve(primal.model);
  if (solution.status != lp::SolveStatus::Optimal) {
    throw std::runtime_error("primal LP did not solve to optimality (status " +
                             std::to_string(static_cast<int>(solution.status)) + ")");
  }
  return solution.objective;
}

}  // namespace rdcn

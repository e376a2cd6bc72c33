#include "core/dual_witness.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rdcn {

double DualWitness::objective(double eps) const {
  return sum_alpha - (sum_beta_t + sum_beta_r) / (2.0 + eps);
}

DualWitness build_dual_witness(const Instance& instance, const RunResult& result) {
  if (result.outcomes.size() != instance.num_packets()) {
    throw std::invalid_argument("result does not match instance");
  }
  const Topology& topology = instance.topology();

  DualWitness witness;
  witness.horizon = result.makespan;
  witness.alpha.resize(instance.num_packets());
  witness.beta_t.assign(static_cast<std::size_t>(topology.num_transmitters()),
                        std::vector<double>(static_cast<std::size_t>(witness.horizon), 0.0));
  witness.beta_r.assign(static_cast<std::size_t>(topology.num_receivers()),
                        std::vector<double>(static_cast<std::size_t>(witness.horizon), 0.0));

  for (std::size_t i = 0; i < instance.num_packets(); ++i) {
    const Packet& packet = instance.packets()[i];
    const PacketOutcome& outcome = result.outcomes[i];
    witness.alpha[i] = outcome.route.alpha;
    witness.sum_alpha += outcome.route.alpha;
    if (outcome.route.use_fixed) continue;

    const ReconfigEdge& edge = topology.edge(outcome.route.edge);
    const Delay tail = topology.transmitter_attach_delay(edge.transmitter) +
                       topology.receiver_attach_delay(edge.receiver);
    const double chunk_weight = packet.weight / static_cast<double>(edge.delay);
    for (Time transmit : outcome.chunk_transmit_steps) {
      const Time completion = transmit + 1 + tail;
      // Chunk active over [a_p, completion): counted in both endpoints'
      // beta for every step of that window (this is Lemma 1's ledger).
      for (Time tau = packet.arrival; tau < completion; ++tau) {
        witness.beta_t[static_cast<std::size_t>(edge.transmitter)]
                      [static_cast<std::size_t>(tau)] += chunk_weight;
        witness.beta_r[static_cast<std::size_t>(edge.receiver)]
                      [static_cast<std::size_t>(tau)] += chunk_weight;
        witness.sum_beta_t += chunk_weight;
        witness.sum_beta_r += chunk_weight;
      }
    }
  }
  return witness;
}

DualFeasibilityReport check_dual_feasibility(const Instance& instance,
                                             const DualWitness& witness,
                                             double tolerance) {
  const Topology& topology = instance.topology();
  DualFeasibilityReport report;

  for (std::size_t i = 0; i < instance.num_packets(); ++i) {
    const Packet& packet = instance.packets()[i];
    const double alpha = witness.alpha[i];

    // Constraint family 1: for all e = (t, r) in E_p and tau >= a_p:
    //   alpha_p - d(e) (beta_{t,tau} + beta_{r,tau}) <= w_p (tau + d^(e) - a_p).
    // Beyond the horizon both betas vanish and the RHS grows, so checking
    // tau in [a_p, horizon] is exhaustive.
    for (EdgeIndex e : topology.pair_edges(packet.source, packet.destination)) {
      const ReconfigEdge& edge = topology.edge(e);
      const double d = static_cast<double>(edge.delay);
      const double total_delay = static_cast<double>(topology.total_edge_delay(e));
      for (Time tau = packet.arrival; tau <= witness.horizon; ++tau) {
        double beta_sum = 0.0;
        if (tau < witness.horizon) {
          beta_sum = witness.beta_t[static_cast<std::size_t>(edge.transmitter)]
                                   [static_cast<std::size_t>(tau)] +
                     witness.beta_r[static_cast<std::size_t>(edge.receiver)]
                                   [static_cast<std::size_t>(tau)];
        }
        const double lhs = alpha - d * beta_sum;
        const double rhs =
            packet.weight * (static_cast<double>(tau - packet.arrival) + total_delay);
        ++report.constraints_checked;
        if (lhs > 0.0) {
          report.max_violation_ratio = std::max(report.max_violation_ratio, lhs / rhs);
        }
        if (lhs / 2.0 > rhs + tolerance) report.halved_feasible = false;
      }
    }

    // Constraint family 2: alpha_p <= w_p dl(p) for p in Pi_l. The
    // dispatcher guarantees this unhalved, hence certainly halved.
    if (auto direct = topology.fixed_link_delay(packet.source, packet.destination)) {
      ++report.constraints_checked;
      if (alpha / 2.0 > packet.weight * static_cast<double>(*direct) + tolerance) {
        report.halved_feasible = false;
      }
    }
  }
  return report;
}

double lemma1_gap(const DualWitness& witness, const RunResult& result) {
  const double gap_tr = std::abs(witness.sum_beta_t - witness.sum_beta_r);
  const double gap_cost = std::abs(witness.sum_beta_t - result.reconfig_cost);
  return std::max(gap_tr, gap_cost);
}

}  // namespace rdcn

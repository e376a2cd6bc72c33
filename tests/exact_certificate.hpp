#pragma once

// Exact-rational form of the Section IV-B dual witness, for the tests:
// with integer packet weights, alpha_p (recomputed from the run), the beta
// ledgers (= twice the reconfigurable cost) and the dual objective
//   D(eps) = sum alpha - 1/(2+eps) * (sum beta_t + sum beta_r)
// are all exact rationals. Together with exact_paper_lp.hpp this makes
// the whole Theorem-1 certificate chain float-free:
//   ALG = sum charges <= sum alpha,  D/2 <= LP-OPT(eps) <= OPT(eps).

#include "core/charging.hpp"
#include "exact_paper_lp.hpp"
#include "net/instance.hpp"
#include "sim/engine.hpp"
#include "util/rational.hpp"

namespace rdcn {

struct ExactCertificate {
  Rational alg_cost;        ///< ALG's total weighted fractional latency
  Rational sum_alpha;       ///< sum of exact alpha_p
  Rational reconfig_cost;   ///< = sum_t,tau beta = sum_r,tau beta (Lemma 1)
  Rational dual_objective;  ///< D(eps)
  Rational lower_bound;     ///< D(eps)/2, a certified bound on OPT(1/(2+eps))

  /// Lemma 3 (exact): ALG * eps/(2+eps) <= D.
  bool lemma3_holds(ExactEps eps) const {
    // ALG * eps/(2+eps) <= D  <=>  ALG * num/(2*den+num) <= D  (den > 0).
    return alg_cost * Rational(eps.num, 2 * eps.den + eps.num) <= dual_objective;
  }
};

/// Builds the exact certificate from an ALG run (ImpactDispatcher alphas
/// are recomputed exactly; requires integer weights).
inline ExactCertificate build_exact_certificate(const Instance& instance,
                                                const RunResult& result, ExactEps eps) {
  const Topology& topology = instance.topology();
  ExactCertificate certificate;

  const std::vector<Rational> alphas = exact_alphas(instance, result);
  for (const Rational& alpha : alphas) certificate.sum_alpha += alpha;

  // Exact ALG cost split into reconfigurable and fixed shares.
  Rational fixed_cost(0);
  for (std::size_t i = 0; i < instance.num_packets(); ++i) {
    const Packet& packet = instance.packets()[i];
    const PacketOutcome& outcome = result.outcomes[i];
    const auto weight = static_cast<std::int64_t>(packet.weight);
    if (outcome.route.use_fixed) {
      const auto direct = topology.fixed_link_delay(packet.source, packet.destination);
      fixed_cost += Rational(weight) * Rational(static_cast<std::int64_t>(*direct));
      continue;
    }
    const ReconfigEdge& edge = topology.edge(outcome.route.edge);
    const Delay tail = topology.transmitter_attach_delay(edge.transmitter) +
                       topology.receiver_attach_delay(edge.receiver);
    const Rational chunk_weight(weight, static_cast<std::int64_t>(edge.delay));
    for (Time transmit : outcome.chunk_transmit_steps) {
      certificate.reconfig_cost +=
          chunk_weight *
          Rational(static_cast<std::int64_t>(transmit + 1 + tail - packet.arrival));
    }
  }
  certificate.alg_cost = certificate.reconfig_cost + fixed_cost;

  // D = sum alpha - budget * (sum beta_t + sum beta_r); by Lemma 1 each
  // beta ledger equals the reconfigurable cost exactly.
  certificate.dual_objective =
      certificate.sum_alpha - eps.budget() * (certificate.reconfig_cost +
                                              certificate.reconfig_cost);
  certificate.lower_bound = certificate.dual_objective / Rational(2);
  return certificate;
}

}  // namespace rdcn

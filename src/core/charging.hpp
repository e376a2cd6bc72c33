#pragma once

// The cost-charging scheme of Section IV-C ("ALG-to-alpha's charging
// scheme"), implemented as an auditor over a batch ALG run:
//
//  * a packet on the fixed network is charged its own latency w_p dl(p);
//  * a chunk's in-flight rounds and rounds blocked by the packet's own
//    chunks are charged to its packet (these sum to the base term of
//    Delta);
//  * a round where chunk c of p is blocked by chunk c' of q != p charges
//    w_c to whichever of p, q arrived LATER (the blocked packet pays if
//    the blocker was there first -- c' in H_p; the blocker pays if it
//    barged in later -- c in L_q).
//
// Lemma 2 states charge(p) <= alpha_p; summing, ALG <= sum alpha. The
// auditor verifies both, exactly (in rational arithmetic) when the
// instance has integer weights.
//
// The blocking relation is a function of the schedule: the auditor reads
// who transmits through each endpoint at each step off the outcomes'
// chunk_transmit_steps, and a waiting chunk's blocker is the higher-
// priority (chunk_higher_priority) of the packets holding its transmitter
// and its receiver.

#include <vector>

#include "net/instance.hpp"
#include "sim/engine.hpp"
#include "util/rational.hpp"

namespace rdcn {

struct ChargingAudit {
  std::vector<double> charge;  ///< c_p per packet
  double total_charge = 0.0;
  /// max_p (c_p - alpha_p); Lemma 2 says <= 0 (up to float noise)
  double max_overcharge = 0.0;
  /// |sum_p c_p - ALG total cost|; the scheme partitions the cost exactly
  double cover_gap = 0.0;
};

/// Floating-point audit of a batch run of `instance` under ALG's policies.
///
/// Precondition: the run is in the analysis model -- one scheduling round
/// per step, endpoint capacity 1, no reconfiguration delay and no
/// migration. Throws std::invalid_argument when `result` has no outcome
/// per packet (a streamed run) or when an endpoint transmits twice in one
/// step, which runs with speedup or capacity above 1 usually do. A
/// reconfiguration delay or restricted migration keeps every endpoint at
/// one chunk per step, so the audit cannot detect them: it charges each
/// packet as if it had waited on its final edge with free retuning, and
/// throws std::logic_error only where a waiting chunk finds neither of
/// its endpoints held.
ChargingAudit audit_charging(const Instance& instance, const RunResult& result);

struct ExactChargingAudit {
  std::vector<Rational> charge;
  std::vector<Rational> alpha;  ///< alpha_p recomputed in exact arithmetic
  Rational total_cost;          ///< ALG cost recomputed exactly
  bool charges_cover_cost = false;  ///< sum charge == total cost, exactly
  bool within_alpha = false;        ///< charge[p] <= alpha[p] for all p, exactly
};

/// Exact audit; requires Instance::has_integer_weights() and the same
/// analysis-model run as audit_charging.
ExactChargingAudit audit_charging_exact(const Instance& instance, const RunResult& result);

/// Recomputes alpha_p for every packet exactly from the run's outcomes
/// (reconstructing each dispatch-time pending state in one sweep over the
/// packets); the engine's double alphas must agree with these up to
/// rounding. Throws std::invalid_argument when a packet's
/// chunk_transmit_steps are out of time order (the engine records them in
/// order).
std::vector<Rational> exact_alphas(const Instance& instance, const RunResult& result);

}  // namespace rdcn

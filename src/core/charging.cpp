#include "core/charging.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace rdcn {

namespace {

/// The blocking relation of the charging scheme, read off the schedule:
/// which packet transmits through each endpoint at each step. In the
/// analysis model (one round per step, capacity 1) an endpoint carries at
/// most one chunk per step, so a second one rejects the run.
class BlockerIndex {
 public:
  BlockerIndex(const Instance& instance, const RunResult& result) {
    if (result.outcomes.size() != instance.num_packets()) {
      throw std::invalid_argument("charging audit needs a batch run of the instance");
    }
    const Topology& topology = instance.topology();
    keys_.resize(instance.num_packets());
    for (std::size_t i = 0; i < instance.num_packets(); ++i) {
      const PacketOutcome& outcome = result.outcomes[i];
      if (outcome.route.use_fixed) continue;
      const Packet& packet = instance.packets()[i];
      const ReconfigEdge& edge = topology.edge(outcome.route.edge);
      Candidate& key = keys_[i];
      key.packet = packet.id;
      key.transmitter = edge.transmitter;
      key.receiver = edge.receiver;
      key.chunk_weight = packet.weight / static_cast<double>(edge.delay);
      key.arrival = packet.arrival;
      for (Time step : outcome.chunk_transmit_steps) {
        claim(by_transmitter_, step, edge.transmitter, packet.id);
        claim(by_receiver_, step, edge.receiver, packet.id);
      }
    }
  }

  /// The packet whose chunk holds `packet`'s transmitter or receiver at
  /// `step` -- `packet` itself if it transmits then; of two holders, the
  /// one ranking higher by chunk_higher_priority. -1 if neither is held.
  PacketIndex blocker(Time step, PacketIndex packet) const {
    const Candidate& key = keys_[static_cast<std::size_t>(packet)];
    const PacketIndex at_t = holder(by_transmitter_, step, key.transmitter);
    const PacketIndex at_r = holder(by_receiver_, step, key.receiver);
    if (at_t < 0 || at_r < 0) return std::max(at_t, at_r);
    return chunk_higher_priority(keys_[static_cast<std::size_t>(at_r)],
                                 keys_[static_cast<std::size_t>(at_t)])
               ? at_r
               : at_t;
  }

 private:
  struct StepEndpointHash {
    std::size_t operator()(const std::pair<Time, NodeIndex>& key) const noexcept {
      return std::hash<Time>{}(key.first) * 31 + static_cast<std::size_t>(key.second);
    }
  };
  using Holders = std::unordered_map<std::pair<Time, NodeIndex>, PacketIndex, StepEndpointHash>;

  static void claim(Holders& holders, Time step, NodeIndex endpoint, PacketIndex packet) {
    if (!holders.emplace(std::pair{step, endpoint}, packet).second) {
      throw std::invalid_argument(
          "charging audit: an endpoint transmits twice in step " + std::to_string(step) +
          "; the scheme needs one round per step at capacity 1");
    }
  }

  static PacketIndex holder(const Holders& holders, Time step, NodeIndex endpoint) {
    const auto it = holders.find({step, endpoint});
    return it == holders.end() ? -1 : it->second;
  }

  std::vector<Candidate> keys_;  ///< each packet's chunk-priority key
  Holders by_transmitter_, by_receiver_;
};

std::int64_t integer_weight(const Packet& packet) {
  const double rounded = std::floor(packet.weight);
  if (rounded != packet.weight || std::abs(packet.weight) > 1e15) {
    throw std::invalid_argument("exact audit requires integer packet weights");
  }
  return static_cast<std::int64_t>(rounded);
}

/// Shared charging walk; Number is double or Rational.
template <typename Number, typename MakeChunkWeight>
void distribute_charges(const Instance& instance, const RunResult& result,
                        const BlockerIndex& blockers, MakeChunkWeight make_chunk_weight,
                        std::vector<Number>& charge) {
  const Topology& topology = instance.topology();
  charge.assign(instance.num_packets(), Number(0));

  for (std::size_t i = 0; i < instance.num_packets(); ++i) {
    const Packet& packet = instance.packets()[i];
    const PacketOutcome& outcome = result.outcomes[i];

    if (outcome.route.use_fixed) {
      const auto direct = topology.fixed_link_delay(packet.source, packet.destination);
      charge[i] += make_chunk_weight(packet, 1) * Number(static_cast<std::int64_t>(*direct));
      continue;
    }

    const ReconfigEdge& edge = topology.edge(outcome.route.edge);
    const Delay tail = topology.transmitter_attach_delay(edge.transmitter) +
                       topology.receiver_attach_delay(edge.receiver);
    const Number chunk_weight = make_chunk_weight(packet, edge.delay);

    for (Time transmit : outcome.chunk_transmit_steps) {
      // In-flight rounds [transmit, completion): charged to the packet.
      charge[i] += chunk_weight * Number(static_cast<std::int64_t>(1 + tail));
      // Waiting rounds [a_p, transmit): someone blocked the chunk.
      for (Time tau = packet.arrival; tau < transmit; ++tau) {
        const PacketIndex blocker = blockers.blocker(tau, packet.id);
        if (blocker == packet.id) {
          charge[i] += chunk_weight;  // blocked by the packet's own chunk
          continue;
        }
        if (blocker < 0) {
          throw std::logic_error("charging audit: blocked chunk without blocker");
        }
        const Packet& blocker_packet =
            instance.packets()[static_cast<std::size_t>(blocker)];
        if (arrived_before(blocker_packet, packet)) {
          charge[i] += chunk_weight;  // blocker was first: c' in H_p, p pays
        } else {
          charge[static_cast<std::size_t>(blocker)] += chunk_weight;  // c in L_q, q pays
        }
      }
    }
  }
}

}  // namespace

ChargingAudit audit_charging(const Instance& instance, const RunResult& result) {
  const BlockerIndex blockers(instance, result);
  ChargingAudit audit;
  distribute_charges<double>(
      instance, result, blockers,
      [](const Packet& packet, Delay delay) {
        return packet.weight / static_cast<double>(delay);
      },
      audit.charge);

  for (std::size_t i = 0; i < instance.num_packets(); ++i) {
    audit.total_charge += audit.charge[i];
    audit.max_overcharge =
        std::max(audit.max_overcharge, audit.charge[i] - result.outcomes[i].route.alpha);
  }
  audit.cover_gap = std::abs(audit.total_charge - result.total_cost);
  return audit;
}

std::vector<Rational> exact_alphas(const Instance& instance, const RunResult& result) {
  const Topology& topology = instance.topology();
  const auto& packets = instance.packets();
  std::vector<Rational> alphas(instance.num_packets(), Rational(0));

  // Reconstructing each dispatch-time pending state: packets earlier in
  // the input sequence, routed via an edge sharing the packet's
  // transmitter or receiver, with the chunks they had not yet transmitted
  // strictly before step a_p (the dispatcher runs before the step's
  // scheduling round). One sweep in input order keeps, per transmitter
  // and per receiver, the earlier reconfigurable packets in input order
  // that may still hold chunks. Arrivals are nondecreasing, so a packet
  // whose last chunk transmitted before a_p holds none at any later
  // arrival and leaves both lists for good; `sent[j]` counts packet j's
  // chunks transmitted before the current arrival. Merging the two lists
  // visits the holders in input order, so the exact sums are formed in
  // the same order as a rescan of every earlier packet would.
  std::vector<std::vector<std::size_t>> at_transmitter(
      static_cast<std::size_t>(topology.num_transmitters()));
  std::vector<std::vector<std::size_t>> at_receiver(
      static_cast<std::size_t>(topology.num_receivers()));
  std::vector<Rational> chunk_weights(instance.num_packets(), Rational(0));
  std::vector<std::size_t> sent(instance.num_packets(), 0);

  for (std::size_t i = 0; i < instance.num_packets(); ++i) {
    const Packet& packet = packets[i];
    const PacketOutcome& outcome = result.outcomes[i];
    const std::int64_t weight = integer_weight(packet);

    if (outcome.route.use_fixed) {
      const auto direct = topology.fixed_link_delay(packet.source, packet.destination);
      alphas[i] = Rational(weight) * Rational(static_cast<std::int64_t>(*direct));
      continue;
    }

    const ReconfigEdge& edge = topology.edge(outcome.route.edge);
    const Rational own_chunk_weight(weight, static_cast<std::int64_t>(edge.delay));
    const Rational base =
        Rational(weight) *
        (Rational(static_cast<std::int64_t>(topology.transmitter_attach_delay(edge.transmitter))) +
         Rational(static_cast<std::int64_t>(edge.delay) + 1, 2) +
         Rational(static_cast<std::int64_t>(topology.receiver_attach_delay(edge.receiver))));

    std::int64_t h_count = 0;
    Rational l_weight(0);
    std::vector<std::size_t>& by_t = at_transmitter[static_cast<std::size_t>(edge.transmitter)];
    std::vector<std::size_t>& by_r = at_receiver[static_cast<std::size_t>(edge.receiver)];
    std::size_t next_t = 0, next_r = 0, kept_t = 0, kept_r = 0;
    while (next_t < by_t.size() || next_r < by_r.size()) {
      // The next holder in input order; a packet on an edge with both
      // endpoints in common is in both lists and counts once.
      const bool in_t = next_r == by_r.size() ||
                        (next_t < by_t.size() && by_t[next_t] <= by_r[next_r]);
      const std::size_t j = in_t ? by_t[next_t] : by_r[next_r];
      const bool in_r = next_r < by_r.size() && by_r[next_r] == j;
      const ChunkSteps& steps = result.outcomes[j].chunk_transmit_steps;
      while (sent[j] < steps.size() && steps[sent[j]] < packet.arrival) ++sent[j];
      const std::int64_t remaining =
          topology.edge(result.outcomes[j].route.edge).delay - static_cast<std::int64_t>(sent[j]);
      if (remaining > 0) {
        if (chunk_weights[j] >= own_chunk_weight) {
          h_count += remaining;
        } else {
          l_weight += chunk_weights[j] * Rational(remaining);
        }
        if (in_t) by_t[kept_t++] = j;
        if (in_r) by_r[kept_r++] = j;
      }
      if (in_t) ++next_t;
      if (in_r) ++next_r;
    }
    by_t.resize(kept_t);
    by_r.resize(kept_r);
    alphas[i] = base + Rational(weight) * Rational(h_count) +
                Rational(static_cast<std::int64_t>(edge.delay)) * l_weight;

    if (!std::is_sorted(outcome.chunk_transmit_steps.begin(),
                        outcome.chunk_transmit_steps.end())) {
      throw std::invalid_argument("exact audit: packet " + std::to_string(packet.id) +
                                  " has chunk transmit steps out of time order");
    }
    chunk_weights[i] = own_chunk_weight;
    by_t.push_back(i);
    by_r.push_back(i);
  }
  return alphas;
}

ExactChargingAudit audit_charging_exact(const Instance& instance, const RunResult& result) {
  if (!instance.has_integer_weights()) {
    throw std::invalid_argument("exact audit requires integer weights");
  }
  const BlockerIndex blockers(instance, result);
  const Topology& topology = instance.topology();

  ExactChargingAudit audit;
  distribute_charges<Rational>(
      instance, result, blockers,
      [](const Packet& packet, Delay delay) {
        return Rational(integer_weight(packet), static_cast<std::int64_t>(delay));
      },
      audit.charge);
  audit.alpha = exact_alphas(instance, result);

  // Recompute ALG's cost exactly from the outcomes.
  audit.total_cost = Rational(0);
  for (std::size_t i = 0; i < instance.num_packets(); ++i) {
    const Packet& packet = instance.packets()[i];
    const PacketOutcome& outcome = result.outcomes[i];
    if (outcome.route.use_fixed) {
      const auto direct = topology.fixed_link_delay(packet.source, packet.destination);
      audit.total_cost += Rational(integer_weight(packet)) *
                          Rational(static_cast<std::int64_t>(*direct));
      continue;
    }
    const ReconfigEdge& edge = topology.edge(outcome.route.edge);
    const Delay tail = topology.transmitter_attach_delay(edge.transmitter) +
                       topology.receiver_attach_delay(edge.receiver);
    const Rational chunk_weight(integer_weight(packet), static_cast<std::int64_t>(edge.delay));
    for (Time transmit : outcome.chunk_transmit_steps) {
      const Time completion = transmit + 1 + tail;
      audit.total_cost +=
          chunk_weight * Rational(static_cast<std::int64_t>(completion - packet.arrival));
    }
  }

  Rational total_charge(0);
  audit.within_alpha = true;
  for (std::size_t i = 0; i < instance.num_packets(); ++i) {
    total_charge += audit.charge[i];
    if (audit.charge[i] > audit.alpha[i]) audit.within_alpha = false;
  }
  audit.charges_cover_cost = (total_charge == audit.total_cost);
  return audit;
}

}  // namespace rdcn

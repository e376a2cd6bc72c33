#pragma once

// Reference for core/charging's exact_alphas: alpha_p recomputed for every
// packet by rescanning every earlier packet's schedule, O(n^2) rational
// operations. exact_alphas sweeps the packets once instead; the tests
// require both to agree exactly.

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "net/instance.hpp"
#include "sim/engine.hpp"
#include "util/rational.hpp"

namespace rdcn::testing {

inline std::vector<Rational> exact_alphas_by_rescan(const Instance& instance,
                                                    const RunResult& result) {
  const auto integer_weight = [](const Packet& packet) {
    if (std::floor(packet.weight) != packet.weight) {
      throw std::invalid_argument("exact audit requires integer packet weights");
    }
    return static_cast<std::int64_t>(packet.weight);
  };
  const Topology& topology = instance.topology();
  const auto& packets = instance.packets();
  std::vector<Rational> alphas(instance.num_packets(), Rational(0));

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

    // The dispatch-time pending state: packets earlier in the input
    // sequence, routed via an adjacent edge, with the chunks they had not
    // yet transmitted strictly before step a_p.
    std::int64_t h_count = 0;
    Rational l_weight(0);
    for (std::size_t j = 0; j < i; ++j) {
      const PacketOutcome& other = result.outcomes[j];
      if (other.route.use_fixed) continue;
      const ReconfigEdge& other_edge = topology.edge(other.route.edge);
      if (other_edge.transmitter != edge.transmitter && other_edge.receiver != edge.receiver) {
        continue;
      }
      std::int64_t remaining = other_edge.delay;
      for (Time transmit : other.chunk_transmit_steps) {
        if (transmit < packet.arrival) --remaining;
      }
      if (remaining <= 0) continue;
      const Rational other_chunk_weight(integer_weight(packets[j]),
                                        static_cast<std::int64_t>(other_edge.delay));
      if (other_chunk_weight >= own_chunk_weight) {
        h_count += remaining;
      } else {
        l_weight += other_chunk_weight * Rational(remaining);
      }
    }
    alphas[i] = base + Rational(weight) * Rational(h_count) +
                Rational(static_cast<std::int64_t>(edge.delay)) * l_weight;
  }
  return alphas;
}

}  // namespace rdcn::testing

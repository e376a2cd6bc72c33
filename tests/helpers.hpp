#pragma once

// Shared fixtures for the test-suite: deterministic random instance
// families spanning topology shapes (crossbar, sparse two-tier, hybrid,
// heterogeneous delays) and workload mixes, the starvation stream that
// pins the engine's per-packet memory bound, and the schedule hash that
// golden and equivalence tests compare.

#include <cstdint>
#include <vector>

#include "net/builders.hpp"
#include "net/instance.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace rdcn::testing {

struct RandomInstanceSpec {
  std::uint64_t seed = 1;
  NodeIndex racks = 4;
  NodeIndex lasers = 2;
  NodeIndex photodetectors = 2;
  double density = 0.8;
  Delay max_edge_delay = 2;
  Delay attach_delay = 0;
  Delay fixed_link_delay = 0;  ///< 0 = pure reconfigurable
  std::size_t packets = 20;
  double arrival_rate = 3.0;
  PairSkew skew = PairSkew::Uniform;
  WeightDist weights = WeightDist::UniformInt;
  std::int64_t weight_max = 8;
};

inline Instance make_random_instance(const RandomInstanceSpec& spec) {
  Rng rng(spec.seed * 0x9e3779b97f4a7c15ULL + 12345);
  TwoTierConfig config;
  config.racks = spec.racks;
  config.lasers_per_rack = spec.lasers;
  config.photodetectors_per_rack = spec.photodetectors;
  config.density = spec.density;
  config.max_edge_delay = spec.max_edge_delay;
  config.attach_delay = spec.attach_delay;
  config.fixed_link_delay = spec.fixed_link_delay;
  const Topology topology = build_two_tier(config, rng);

  WorkloadConfig workload;
  workload.num_packets = spec.packets;
  workload.arrival_rate = spec.arrival_rate;
  workload.skew = spec.skew;
  workload.weights = spec.weights;
  workload.weight_max = spec.weight_max;
  workload.seed = spec.seed;
  return generate_workload(topology, workload);
}

/// A seed-indexed family covering several shapes; used by TEST_P sweeps.
/// Seeds above 100 select larger, more congested shapes so the same
/// property suites also exercise deep queues and long horizons.
inline Instance make_varied_instance(std::uint64_t seed) {
  RandomInstanceSpec spec;
  spec.seed = seed;
  if (seed > 100) {
    spec.racks = 6 + static_cast<NodeIndex>(seed % 5);          // 6..10 racks
    spec.lasers = 2;
    spec.photodetectors = 2;
    spec.density = 0.4;
    spec.max_edge_delay = 1 + static_cast<Delay>(seed % 4);     // 1..4
    spec.attach_delay = (seed % 4 == 0) ? 2 : 0;
    spec.fixed_link_delay = (seed % 2 == 0) ? 12 : 0;
    spec.packets = 60 + (seed % 40);
    spec.arrival_rate = 6.0;
    spec.skew = static_cast<PairSkew>(seed % 5);
    spec.weights = WeightDist::UniformInt;
    spec.weight_max = 16;
    return make_random_instance(spec);
  }
  spec.racks = 3 + static_cast<NodeIndex>(seed % 3);            // 3..5 racks
  spec.lasers = 1 + static_cast<NodeIndex>(seed % 2);           // 1..2
  spec.photodetectors = 1 + static_cast<NodeIndex>((seed / 2) % 2);
  spec.density = (seed % 4 == 0) ? 0.5 : 1.0;
  spec.max_edge_delay = 1 + static_cast<Delay>(seed % 3);       // 1..3
  spec.attach_delay = (seed % 5 == 0) ? 1 : 0;
  spec.fixed_link_delay = (seed % 3 == 0) ? 6 : 0;              // hybrid mix
  spec.packets = 12 + (seed % 10);
  spec.skew = static_cast<PairSkew>(seed % 5);
  spec.weights = static_cast<WeightDist>(seed % 3 == 0 ? 0 : 1);  // unit / uniform-int
  return make_random_instance(spec);
}

/// One FNV-1a step over the eight bytes of `v`.
inline std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

/// FNV-1a over the integral schedule data (route kind/edge, completion,
/// per-chunk transmit steps) in packet-id order: equal hashes == bit-for-
/// bit identical schedules, with no floating-point in the fingerprint.
inline std::uint64_t schedule_hash(const std::vector<PacketOutcome>& outcomes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const PacketOutcome& o : outcomes) {
    h = mix64(h, o.route.use_fixed ? 1u : 0u);
    h = mix64(h, static_cast<std::uint64_t>(o.route.use_fixed ? -1 : o.route.edge));
    h = mix64(h, static_cast<std::uint64_t>(o.completion));
    h = mix64(h, o.chunk_transmit_steps.size());
    for (Time t : o.chunk_transmit_steps) h = mix64(h, static_cast<std::uint64_t>(t));
  }
  return h;
}

/// A two-port crossbar whose four edges all have delay `delay`.
inline Topology delay_crossbar(Delay delay) {
  Topology g;
  g.add_sources(2);
  g.add_destinations(2);
  for (NodeIndex i = 0; i < 2; ++i) g.add_transmitter(i);
  for (NodeIndex i = 0; i < 2; ++i) g.add_receiver(i);
  for (NodeIndex t = 0; t < 2; ++t) {
    for (NodeIndex r = 0; r < 2; ++r) g.add_edge(t, r, delay);
  }
  return g;
}

/// Streams the starvation pattern into `engine` (built on
/// delay_crossbar(delay)): a weight-1 packet arrives at step 1 on pair
/// (0, 1), and a weight-10 packet follows on the same pair -- so the same
/// edge -- at step 1 and every `delay` steps after, through step `steps`.
/// A priority scheduler serves each heavy packet's chunks as it arrives,
/// so the light packet waits out the whole stream and is served in the
/// drain. `at_boundary(engine)` runs after every finish_step.
template <typename AtBoundary>
void run_starved_stream(Engine& engine, Delay delay, Time steps,
                        AtBoundary&& at_boundary) {
  PacketIndex id = 0;
  const auto inject = [&](Weight weight) {
    engine.inject(Packet{id++, engine.now(), weight, 0, 1});
  };
  for (Time next = 1; next <= steps || engine.busy();) {
    const bool arrivals = next <= steps;
    engine.begin_step(arrivals ? &next : nullptr);
    if (arrivals && engine.now() == next) {
      if (next == 1) inject(1.0);
      inject(10.0);
      next += delay;
    }
    engine.finish_step();
    at_boundary(engine);
  }
}

}  // namespace rdcn::testing

// Tests for the traffic/ subsystem: arrival determinism per source, id /
// arrival sequencing invariants, rho calibration landing near the measured
// offered load, and trace capture/replay round trips.

#include <gtest/gtest.h>

#include <cmath>

#include "helpers.hpp"
#include "net/builders.hpp"
#include "traffic/source.hpp"
#include "workload/generator.hpp"

namespace rdcn {
namespace {

Topology test_topology(std::uint64_t seed = 7) {
  TwoTierConfig config;
  config.racks = 6;
  config.lasers_per_rack = 2;
  config.photodetectors_per_rack = 2;
  config.density = 0.8;
  config.max_edge_delay = 2;
  Rng rng(seed);
  return build_two_tier(config, rng);
}

TrafficConfig poisson_config(double rho = 0.7) {
  TrafficConfig config;
  config.process = ArrivalProcess::Poisson;
  config.rho = rho;
  config.shape.skew = PairSkew::Uniform;
  config.shape.weights = WeightDist::UniformInt;
  config.shape.weight_max = 10;
  config.shape.seed = 11;
  return config;
}

void expect_same_sequence(TrafficSource& a, TrafficSource& b, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const auto pa = a.next();
    const auto pb = b.next();
    ASSERT_TRUE(pa.has_value());
    ASSERT_TRUE(pb.has_value());
    EXPECT_EQ(pa->id, pb->id);
    EXPECT_EQ(pa->arrival, pb->arrival);
    EXPECT_EQ(pa->weight, pb->weight);
    EXPECT_EQ(pa->source, pb->source);
    EXPECT_EQ(pa->destination, pb->destination);
  }
}

// ------------------------------------------------------------ determinism --

TEST(TrafficSource, PoissonRegeneratesIdenticalSequenceFromSeed) {
  const Topology topology = test_topology();
  const TrafficConfig config = poisson_config();
  auto a = make_source(topology, config);
  auto b = make_source(topology, config);
  expect_same_sequence(*a, *b, 500);
}

TEST(TrafficSource, OnOffRegeneratesIdenticalSequenceFromSeed) {
  const Topology topology = test_topology();
  TrafficConfig config = poisson_config();
  config.process = ArrivalProcess::OnOff;
  auto a = make_source(topology, config);
  auto b = make_source(topology, config);
  expect_same_sequence(*a, *b, 500);
}

TEST(TrafficSource, DifferentSeedsDiverge) {
  const Topology topology = test_topology();
  TrafficConfig config = poisson_config();
  auto a = make_source(topology, config);
  config.shape.seed = 12;
  auto b = make_source(topology, config);
  bool differs = false;
  for (std::size_t i = 0; i < 200 && !differs; ++i) {
    const auto pa = a->next();
    const auto pb = b->next();
    differs = pa->arrival != pb->arrival || pa->weight != pb->weight ||
              pa->source != pb->source || pa->destination != pb->destination;
  }
  EXPECT_TRUE(differs);
}

TEST(TrafficSource, IdsSequentialArrivalsNondecreasingFromOne) {
  const Topology topology = test_topology();
  for (const ArrivalProcess process : {ArrivalProcess::Poisson, ArrivalProcess::OnOff}) {
    TrafficConfig config = poisson_config();
    config.process = process;
    auto source = make_source(topology, config);
    Time last_arrival = 1;
    for (PacketIndex expected_id = 0; expected_id < 400; ++expected_id) {
      const auto packet = source->next();
      ASSERT_TRUE(packet.has_value());
      EXPECT_EQ(packet->id, expected_id);
      EXPECT_GE(packet->arrival, last_arrival);
      EXPECT_GT(packet->weight, 0.0);
      EXPECT_TRUE(topology.routable(packet->source, packet->destination));
      last_arrival = packet->arrival;
    }
  }
}

// ------------------------------------------------------------ calibration --

TEST(TrafficSource, RhoTargetingMatchesMeasuredOfferedLoad) {
  const Topology topology = test_topology();
  for (const double rho : {0.5, 0.9}) {
    TrafficConfig config = poisson_config(rho);
    auto source = make_source(topology, config);
    const std::vector<Packet> packets = record_arrivals(*source, 20000);
    ASSERT_EQ(packets.size(), 20000u);
    double demand = 0.0;
    for (const Packet& p : packets) {
      demand += static_cast<double>(cheapest_demand(topology, p.source, p.destination));
    }
    const auto span = static_cast<double>(packets.back().arrival);
    const double measured = demand / (span * service_capacity(topology));
    EXPECT_NEAR(measured, rho, 0.1 * rho) << "rho " << rho;
  }
}

TEST(TrafficSource, OnOffPreservesLongRunRate) {
  const Topology topology = test_topology();
  TrafficConfig config = poisson_config(0.7);
  config.process = ArrivalProcess::OnOff;
  auto source = make_source(topology, config);
  const std::vector<Packet> packets = record_arrivals(*source, 30000);
  double demand = 0.0;
  for (const Packet& p : packets) {
    demand += static_cast<double>(cheapest_demand(topology, p.source, p.destination));
  }
  const auto span = static_cast<double>(packets.back().arrival);
  const double measured = demand / (span * service_capacity(topology));
  // The modulated chain mixes more slowly than iid Poisson; allow 15%.
  EXPECT_NEAR(measured, 0.7, 0.15 * 0.7);
}

TEST(TrafficSource, CalibratedRateScalesWithRhoAndSpeedup) {
  const Topology topology = test_topology();
  TrafficConfig config = poisson_config(0.5);
  const double base = calibrate_rate(topology, config);
  EXPECT_GT(base, 0.0);
  config.rho = 1.0;
  EXPECT_NEAR(calibrate_rate(topology, config), 2.0 * base, 1e-9);
  config.speedup_rounds = 2;
  EXPECT_NEAR(calibrate_rate(topology, config), 4.0 * base, 1e-9);
}

TEST(TrafficSource, ServiceCapacityIsPortBound) {
  const Topology topology = test_topology();
  const auto ports = std::min(topology.num_transmitters(), topology.num_receivers());
  EXPECT_DOUBLE_EQ(service_capacity(topology), static_cast<double>(ports));
  EXPECT_DOUBLE_EQ(service_capacity(topology, 3), 3.0 * static_cast<double>(ports));
}

TEST(TrafficSource, CheapestDemandIsMinEdgeDelay) {
  Topology g;
  g.add_sources(1);
  g.add_destinations(1);
  const NodeIndex t = g.add_transmitter(0);
  const NodeIndex r = g.add_receiver(0);
  g.add_edge(t, r, 3);
  g.add_edge(t, r, 2);
  EXPECT_EQ(cheapest_demand(g, 0, 0), 2);
  g.add_fixed_link(0, 0, 1);
  EXPECT_EQ(cheapest_demand(g, 0, 0), 2);  // fixed layer never counts
}

/// A mostly-fixed-layer topology: one reconfigurable pair among many pairs
/// routable only over fixed links (all of those have cheapest demand 0).
/// The sampler excludes same-index (intra-rack) pairs, so the
/// reconfigurable edge sits on the cross pair (0, 1).
Topology mostly_fixed_topology() {
  Topology g;
  g.add_sources(4);
  g.add_destinations(4);
  const NodeIndex t = g.add_transmitter(0);
  const NodeIndex r = g.add_receiver(1);
  g.add_edge(t, r, 2);
  for (NodeIndex s = 0; s < 4; ++s) {
    for (NodeIndex d = 0; d < 4; ++d) g.add_fixed_link(s, d, 5);
  }
  return g;
}

TEST(TrafficSource, DemandEstimateSurfacesZeroDemandPairs) {
  const Topology g = mostly_fixed_topology();
  WorkloadConfig shape;
  shape.skew = PairSkew::Uniform;
  shape.seed = 3;
  const DemandEstimate estimate = estimate_service_demand(g, shape);
  // 1 of the 12 cross-rack uniform pairs touches the reconfigurable layer.
  EXPECT_NEAR(estimate.zero_fraction, 11.0 / 12.0, 0.03);
  EXPECT_GT(estimate.mean_demand, 0.0);
  // A fully reconfigurable topology reports no zero-demand draws.
  EXPECT_DOUBLE_EQ(estimate_service_demand(test_topology(), shape).zero_fraction, 0.0);
}

TEST(TrafficSource, CalibrationRejectsMostlyZeroDemandShapes) {
  // rho over a shape where ~94% of pairs never touch the reconfigurable
  // layer would silently describe a sliver of the traffic: reject by
  // default, allow with an explicit opt-in.
  const Topology g = mostly_fixed_topology();
  TrafficConfig config = poisson_config(0.7);
  EXPECT_THROW(calibrate_rate(g, config), std::invalid_argument);
  config.max_zero_demand_fraction = 1.0;  // explicit opt-in
  EXPECT_GT(calibrate_rate(g, config), 0.0);
  config.max_zero_demand_fraction = 2.0;  // nonsensical bound
  EXPECT_THROW(calibrate_rate(g, config), std::invalid_argument);
}

// ------------------------------------------------------------------ trace --

TEST(TrafficSource, TraceSourceReplaysRecordedPacketsVerbatim) {
  const Topology topology = test_topology();
  auto live = make_source(topology, poisson_config());
  const std::vector<Packet> recorded = record_arrivals(*live, 300);
  auto replay = make_trace_source(recorded);
  for (const Packet& expected : recorded) {
    const auto packet = replay->next();
    ASSERT_TRUE(packet.has_value());
    EXPECT_EQ(packet->id, expected.id);
    EXPECT_EQ(packet->arrival, expected.arrival);
    EXPECT_EQ(packet->weight, expected.weight);
    EXPECT_EQ(packet->source, expected.source);
    EXPECT_EQ(packet->destination, expected.destination);
  }
  EXPECT_FALSE(replay->next().has_value());
}

TEST(TrafficSource, RecordedArrivalsFormAValidInstance) {
  const Topology topology = test_topology();
  auto source = make_source(topology, poisson_config());
  const Instance instance(topology, record_arrivals(*source, 500));
  EXPECT_TRUE(instance.validate().empty()) << instance.validate();
  // Round trip through the text format stays bit-exact.
  const Instance reloaded = Instance::from_string(instance.to_string());
  EXPECT_EQ(reloaded.to_string(), instance.to_string());
}

TEST(TrafficSource, MakeSourceRejectsTraceProcess) {
  TrafficConfig config = poisson_config();
  config.process = ArrivalProcess::Trace;
  EXPECT_THROW(make_source(test_topology(), config), std::invalid_argument);
}

TEST(TrafficSource, PoissonMatchesBatchGeneratorDistributions) {
  // The streaming source reuses workload/'s PairSampler and sample_weight
  // with the same seed discipline, so with the batch generator's rate it
  // reproduces generate_workload's packet sequence exactly.
  const Topology topology = test_topology();
  TrafficConfig config;
  config.rho = 0.6;
  config.shape.skew = PairSkew::Zipf;
  config.shape.zipf_exponent = 1.1;
  config.shape.weights = WeightDist::UniformInt;
  config.shape.weight_max = 10;
  config.shape.seed = 21;

  WorkloadConfig batch_config = config.shape;
  batch_config.num_packets = 400;
  // Pin the batch generator to the exact calibrated double, so the two
  // Poisson draws see bit-identical means.
  batch_config.arrival_rate = calibrate_rate(topology, config);
  const Instance batch = generate_workload(topology, batch_config);

  auto source = make_source(topology, config);
  for (const Packet& expected : batch.packets()) {
    const auto packet = source->next();
    ASSERT_TRUE(packet.has_value());
    EXPECT_EQ(packet->id, expected.id);
    EXPECT_EQ(packet->arrival, expected.arrival);
    EXPECT_EQ(packet->weight, expected.weight);
    EXPECT_EQ(packet->source, expected.source);
    EXPECT_EQ(packet->destination, expected.destination);
  }
}

// ----------------------------------------- calibration over the topology zoo --

TEST(TrafficZoo, MatchingCapacityEqualsPortsOnDenseFabrics) {
  const Topology crossbar = build_crossbar(6);
  EXPECT_DOUBLE_EQ(matching_capacity(crossbar), service_capacity(crossbar));
  const Topology pod = test_topology();
  EXPECT_DOUBLE_EQ(matching_capacity(pod), service_capacity(pod));
  EXPECT_DOUBLE_EQ(matching_capacity(crossbar, 2), 2.0 * matching_capacity(crossbar));
}

TEST(TrafficZoo, MatchingCapacityExposesDarkPortsOnSparseRotor) {
  // One rotor matching over two ports per rack: port 1 never gets an edge,
  // so at most `racks` chunks move per step -- half the Ports bound.
  RotorConfig config;
  config.racks = 4;
  config.ports_per_rack = 2;
  config.num_matchings = 1;
  const Topology g = build_rotor(config);
  EXPECT_DOUBLE_EQ(service_capacity(g), 8.0);
  EXPECT_DOUBLE_EQ(matching_capacity(g), 4.0);
}

TEST(TrafficZoo, MatchingCapacityExposesDarkPortsOnLowDegreeExpander) {
  ExpanderConfig config;
  config.racks = 6;
  config.degree = 1;  // one permutation: only laser port 0 is wired
  config.lasers_per_rack = 2;
  config.photodetectors_per_rack = 2;
  config.fixed_link_delay = 0;
  Rng rng(5);
  const Topology g = build_expander(config, rng);
  EXPECT_DOUBLE_EQ(service_capacity(g), 12.0);
  EXPECT_DOUBLE_EQ(matching_capacity(g), 6.0);
}

TEST(TrafficZoo, MaxMatchingModelScalesTheCalibratedRate) {
  RotorConfig rotor;
  rotor.racks = 4;
  rotor.ports_per_rack = 2;
  rotor.num_matchings = 1;
  const Topology g = build_rotor(rotor);
  TrafficConfig config = poisson_config(0.8);
  const double ports_rate = calibrate_rate(g, config);
  config.capacity_model = CapacityModel::MaxMatching;
  const double matching_rate = calibrate_rate(g, config);
  // Same demand estimate, half the capacity: exactly half the rate.
  EXPECT_NEAR(matching_rate, 0.5 * ports_rate, 1e-12);
}

TEST(TrafficZoo, CalibrationTargetsMeasuredLoadOnEveryZooShape) {
  std::vector<Topology> fabrics;
  {
    Rng rng(41);
    fabrics.push_back(build_oversubscribed(OversubscribedConfig{}, rng));
  }
  {
    ExpanderConfig config;
    config.fixed_link_delay = 0;  // pure expander: zero-demand fraction 0
    Rng rng(42);
    fabrics.push_back(build_expander(config, rng));
  }
  fabrics.push_back(build_rotor(RotorConfig{}));

  for (std::size_t i = 0; i < fabrics.size(); ++i) {
    TrafficConfig config = poisson_config(0.7);
    // Oversubscribed pods route a sizable minority of pairs fixed-only.
    config.max_zero_demand_fraction = 0.75;
    const double rate = calibrate_rate(fabrics[i], config);
    ASSERT_GT(rate, 0.0) << "fabric " << i;
    auto source = make_source(fabrics[i], config);
    const std::vector<Packet> packets = record_arrivals(*source, 4000);
    ASSERT_EQ(packets.size(), 4000u);
    const double span = static_cast<double>(packets.back().arrival);
    const double measured = static_cast<double>(packets.size()) / span;
    EXPECT_NEAR(measured, rate, 0.08 * rate) << "fabric " << i;
  }
}

}  // namespace
}  // namespace rdcn

// Workload generator tests: determinism, packet-count and ordering
// invariants, skew shapes (Zipf concentration, hotspot share, permutation
// support, incast sink), weight distributions, burst modulation, and the
// multi-unit flow reduction.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "net/builders.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace rdcn {
namespace {

Topology test_topology() {
  Rng rng(101);
  TwoTierConfig config;
  config.racks = 6;
  config.lasers_per_rack = 2;
  config.photodetectors_per_rack = 2;
  return build_two_tier(config, rng);
}

TEST(Workload, DeterministicUnderSeed) {
  const Topology g = test_topology();
  WorkloadConfig config;
  config.num_packets = 50;
  config.seed = 7;
  const Instance a = generate_workload(g, config);
  const Instance b = generate_workload(g, config);
  EXPECT_EQ(a.to_string(), b.to_string());
  config.seed = 8;
  const Instance c = generate_workload(g, config);
  EXPECT_NE(a.to_string(), c.to_string());
}

TEST(Workload, ProducesValidInstances) {
  const Topology g = test_topology();
  for (int skew = 0; skew < 5; ++skew) {
    for (int weights = 0; weights < 4; ++weights) {
      WorkloadConfig config;
      config.num_packets = 30;
      config.skew = static_cast<PairSkew>(skew);
      config.weights = static_cast<WeightDist>(weights);
      config.seed = static_cast<std::uint64_t>(skew * 10 + weights + 1);
      const Instance instance = generate_workload(g, config);
      EXPECT_EQ(instance.validate(), "") << to_string(config.skew) << "/"
                                         << to_string(config.weights);
      EXPECT_EQ(instance.num_packets(), 30u);
    }
  }
}

TEST(Workload, ZipfConcentratesTraffic) {
  const Topology g = test_topology();
  WorkloadConfig config;
  config.num_packets = 2000;
  config.skew = PairSkew::Zipf;
  config.zipf_exponent = 1.5;
  config.seed = 3;
  const Instance instance = generate_workload(g, config);

  std::map<std::pair<NodeIndex, NodeIndex>, std::size_t> counts;
  for (const Packet& p : instance.packets()) ++counts[{p.source, p.destination}];
  std::size_t top = 0;
  for (const auto& [pair, count] : counts) top = std::max(top, count);
  // The hottest pair carries far more than a uniform share (30 pairs).
  EXPECT_GT(top, instance.num_packets() / 10);
}

TEST(Workload, HotspotShareRespected) {
  const Topology g = test_topology();
  WorkloadConfig config;
  config.num_packets = 2000;
  config.skew = PairSkew::Hotspot;
  config.hotspot_fraction = 0.6;
  config.seed = 4;
  const Instance instance = generate_workload(g, config);
  std::map<std::pair<NodeIndex, NodeIndex>, std::size_t> counts;
  for (const Packet& p : instance.packets()) ++counts[{p.source, p.destination}];
  std::size_t top = 0;
  for (const auto& [pair, count] : counts) top = std::max(top, count);
  EXPECT_GT(static_cast<double>(top), 0.5 * 2000);
  EXPECT_LT(static_cast<double>(top), 0.75 * 2000);
}

TEST(Workload, PermutationUsesOneDestinationPerSource) {
  const Topology g = test_topology();
  WorkloadConfig config;
  config.num_packets = 500;
  config.skew = PairSkew::Permutation;
  config.seed = 5;
  const Instance instance = generate_workload(g, config);
  std::map<NodeIndex, std::set<NodeIndex>> dest_of_source;
  for (const Packet& p : instance.packets()) dest_of_source[p.source].insert(p.destination);
  for (const auto& [source, dests] : dest_of_source) {
    EXPECT_EQ(dests.size(), 1u) << "source " << source;
  }
}

TEST(Workload, IncastFunnelsToOneRack) {
  const Topology g = test_topology();
  WorkloadConfig config;
  config.num_packets = 200;
  config.skew = PairSkew::Incast;
  config.seed = 6;
  const Instance instance = generate_workload(g, config);
  std::set<NodeIndex> destinations;
  for (const Packet& p : instance.packets()) destinations.insert(p.destination);
  EXPECT_EQ(destinations.size(), 1u);
}

TEST(Workload, WeightDistributionsShapeCorrectly) {
  const Topology g = test_topology();
  WorkloadConfig config;
  config.num_packets = 1000;
  config.seed = 9;

  config.weights = WeightDist::Unit;
  const Instance unit = generate_workload(g, config);
  for (const Packet& p : unit.packets()) {
    EXPECT_DOUBLE_EQ(p.weight, 1.0);
  }

  config.weights = WeightDist::UniformInt;
  config.weight_max = 5;
  const Instance uniform_int = generate_workload(g, config);
  for (const Packet& p : uniform_int.packets()) {
    EXPECT_GE(p.weight, 1.0);
    EXPECT_LE(p.weight, 5.0);
    EXPECT_EQ(p.weight, std::floor(p.weight));
  }

  config.weights = WeightDist::Bimodal;
  config.weight_max = 50;
  config.elephant_fraction = 0.2;
  std::size_t elephants = 0;
  const Instance bimodal = generate_workload(g, config);
  for (const Packet& p : bimodal.packets()) {
    EXPECT_TRUE(p.weight == 1.0 || p.weight == 50.0);
    elephants += (p.weight == 50.0) ? 1 : 0;
  }
  EXPECT_GT(elephants, 100u);
  EXPECT_LT(elephants, 320u);

  config.weights = WeightDist::Pareto;
  const Instance pareto = generate_workload(g, config);
  bool heavy_seen = false;
  for (const Packet& p : pareto.packets()) {
    EXPECT_GE(p.weight, 1.0);
    EXPECT_EQ(p.weight, std::floor(p.weight));
    heavy_seen = heavy_seen || p.weight >= 5.0;
  }
  EXPECT_TRUE(heavy_seen);
}

TEST(Workload, BurstyPreservesApproxRateButClumps) {
  const Topology g = test_topology();
  WorkloadConfig config;
  config.num_packets = 3000;
  config.arrival_rate = 2.0;
  config.seed = 10;

  config.bursty = false;
  const Instance smooth = generate_workload(g, config);
  config.bursty = true;
  config.burst_off_prob = 0.7;
  const Instance bursty = generate_workload(g, config);

  // Similar span (rates match on average)...
  const Time span_smooth = smooth.packets().back().arrival;
  const Time span_bursty = bursty.packets().back().arrival;
  EXPECT_NEAR(static_cast<double>(span_bursty), static_cast<double>(span_smooth),
              0.4 * static_cast<double>(span_smooth));

  // ...but much higher per-step peaks when ON.
  std::map<Time, std::size_t> per_step;
  for (const Packet& p : bursty.packets()) ++per_step[p.arrival];
  std::size_t peak = 0;
  for (const auto& [step, count] : per_step) peak = std::max(peak, count);
  EXPECT_GE(peak, 10u);
}

TEST(Workload, LabelsRoundTrip) {
  EXPECT_STREQ(to_string(PairSkew::Zipf), "zipf");
  EXPECT_STREQ(to_string(WeightDist::Bimodal), "bimodal");
}

}  // namespace
}  // namespace rdcn

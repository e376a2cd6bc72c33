// Tests for the extension features beyond the paper's base model:
// b-matching (endpoint capacities), reconfiguration delays, randomized
// schedulers (the paper's stated future work), and the flow-level API.

#include <gtest/gtest.h>

#include "baseline/dispatchers.hpp"
#include "baseline/schedulers.hpp"
#include "capacitated_matching.hpp"
#include "core/alg.hpp"
#include "core/randomized.hpp"
#include "flow/flows.hpp"
#include "helpers.hpp"
#include "net/builders.hpp"
#include "sim/metrics.hpp"
#include "stable_matching.hpp"

namespace rdcn {
namespace {

// ---------------------------------------------------- capacitated greedy --

TEST(CapacitatedMatching, RespectsCapacitiesAndEdgeExclusivity) {
  // Four requests into one right vertex with capacity 2; two share an edge.
  const std::vector<CapacitatedRequest> requests = {
      {0, 0, 10}, {1, 0, 11}, {2, 0, 12}, {3, 0, 11},
  };
  const auto accepted = greedy_stable_bmatching(requests, 4, 1, 2);
  EXPECT_EQ(accepted, (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(is_stable_bmatching(requests, accepted, 4, 1, 2));
}

TEST(CapacitatedMatching, CapacityOneMatchesPlainGreedy) {
  Rng rng(71);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t num_left = 1 + rng.next_below(5);
    const std::size_t num_right = 1 + rng.next_below(5);
    std::vector<MatchRequest> plain;
    std::vector<CapacitatedRequest> capacitated;
    const std::size_t count = rng.next_below(12);
    for (std::size_t k = 0; k < count; ++k) {
      const auto left = static_cast<std::int32_t>(rng.next_below(num_left));
      const auto right = static_cast<std::int32_t>(rng.next_below(num_right));
      plain.push_back(MatchRequest{left, right});
      // Unique edge keys: edge exclusivity must not bite beyond endpoints.
      capacitated.push_back(CapacitatedRequest{left, right, static_cast<std::int64_t>(k)});
    }
    EXPECT_EQ(greedy_stable_matching(plain, num_left, num_right),
              greedy_stable_bmatching(capacitated, num_left, num_right, 1));
  }
}

TEST(CapacitatedMatching, StabilityPropertyOnRandomInputs) {
  Rng rng(73);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t num_left = 1 + rng.next_below(4);
    const std::size_t num_right = 1 + rng.next_below(4);
    const auto capacity = static_cast<std::int32_t>(1 + rng.next_below(3));
    std::vector<CapacitatedRequest> requests;
    const std::size_t count = rng.next_below(14);
    for (std::size_t k = 0; k < count; ++k) {
      requests.push_back(CapacitatedRequest{
          static_cast<std::int32_t>(rng.next_below(num_left)),
          static_cast<std::int32_t>(rng.next_below(num_right)),
          static_cast<std::int64_t>(rng.next_below(6))});
    }
    const auto accepted = greedy_stable_bmatching(requests, num_left, num_right, capacity);
    EXPECT_TRUE(is_stable_bmatching(requests, accepted, num_left, num_right, capacity))
        << "trial " << trial;
  }
}

// ----------------------------------------------------- engine: b-matching --

TEST(BMatchingEngine, HigherCapacityNeverBreaksDelivery) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Instance instance = testing::make_varied_instance(seed);
    for (int capacity : {1, 2, 3}) {
      ImpactDispatcher dispatcher;
      StableMatchingScheduler scheduler;
      EngineOptions options;
      options.endpoint_capacity = capacity;
      const RunResult run = simulate(instance, dispatcher, scheduler, options);
      EXPECT_TRUE(all_delivered(instance, run)) << "seed " << seed << " b=" << capacity;
      EXPECT_NEAR(run.total_cost, recompute_cost(instance, run), 1e-6);
    }
  }
}

TEST(BMatchingEngine, CapacityRelievesSharedTransmitter) {
  // One transmitter fanning out to two receivers: with b=1 the packets
  // serialize; with b=2 both go in step 1.
  Topology g;
  g.add_sources(1);
  g.add_destinations(2);
  const NodeIndex t = g.add_transmitter(0);
  const NodeIndex r0 = g.add_receiver(0);
  const NodeIndex r1 = g.add_receiver(1);
  g.add_edge(t, r0, 1);
  g.add_edge(t, r1, 1);
  Instance instance(std::move(g), {});
  instance.add_packet(1, 1.0, 0, 0);
  instance.add_packet(1, 1.0, 0, 1);

  EngineOptions b1;
  EngineOptions b2;
  b2.endpoint_capacity = 2;
  ImpactDispatcher d1, d2;
  StableMatchingScheduler s1, s2;
  const RunResult run1 = simulate(instance, d1, s1, b1);
  const RunResult run2 = simulate(instance, d2, s2, b2);
  EXPECT_DOUBLE_EQ(run1.total_cost, 3.0);  // 1 + 2
  EXPECT_DOUBLE_EQ(run2.total_cost, 2.0);  // 1 + 1
}

TEST(BMatchingEngine, RejectsBadOptions) {
  const Instance instance = figure2_instance_pi();
  ImpactDispatcher dispatcher;
  StableMatchingScheduler scheduler;
  EngineOptions options;
  options.endpoint_capacity = 0;
  EXPECT_THROW(Engine(instance, dispatcher, scheduler, options), std::invalid_argument);
}

// ----------------------------------------------- engine: reconfig delays --

TEST(ReconfigDelay, ZeroDelayMatchesBaseModel) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Instance instance = testing::make_varied_instance(seed);
    ImpactDispatcher d1, d2;
    StableMatchingScheduler s1, s2;
    EngineOptions base;
    EngineOptions zero = base;
    zero.reconfig_delay = 0;
    EXPECT_DOUBLE_EQ(simulate(instance, d1, s1, base).total_cost,
                     simulate(instance, d2, s2, zero).total_cost);
  }
}

TEST(ReconfigDelay, DelaysFirstTransmission) {
  Topology g;
  g.add_sources(1);
  g.add_destinations(1);
  const NodeIndex t = g.add_transmitter(0);
  const NodeIndex r = g.add_receiver(0);
  g.add_edge(t, r, 1);
  Instance instance(std::move(g), {});
  instance.add_packet(1, 1.0, 0, 0);

  ImpactDispatcher dispatcher;
  StableMatchingScheduler scheduler;
  EngineOptions options;
  options.reconfig_delay = 3;
  const RunResult run = simulate(instance, dispatcher, scheduler, options);
  // Retuning starts at step 1, ready at 4, transmit at 4, complete at 5.
  EXPECT_EQ(run.outcomes[0].chunk_transmit_steps.at(0), 4);
  EXPECT_DOUBLE_EQ(run.total_cost, 4.0);
}

TEST(ReconfigDelay, NoExtraCostWhenConfigurationIsReused) {
  // Two packets on the same edge: one retuning penalty, then back-to-back.
  Topology g;
  g.add_sources(1);
  g.add_destinations(1);
  const NodeIndex t = g.add_transmitter(0);
  const NodeIndex r = g.add_receiver(0);
  g.add_edge(t, r, 1);
  Instance instance(std::move(g), {});
  instance.add_packet(1, 1.0, 0, 0);
  instance.add_packet(1, 1.0, 0, 0);

  ImpactDispatcher dispatcher;
  StableMatchingScheduler scheduler;
  EngineOptions options;
  options.reconfig_delay = 2;
  const RunResult run = simulate(instance, dispatcher, scheduler, options);
  EXPECT_EQ(run.outcomes[0].chunk_transmit_steps.at(0), 3);
  EXPECT_EQ(run.outcomes[1].chunk_transmit_steps.at(0), 4);  // no second retune
}

TEST(ReconfigDelay, AllPoliciesStillDeliver) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Instance instance = testing::make_varied_instance(seed);
    ImpactDispatcher dispatcher;
    StableMatchingScheduler scheduler;
    EngineOptions options;
    options.reconfig_delay = 2;
    const RunResult run = simulate(instance, dispatcher, scheduler, options);
    EXPECT_TRUE(all_delivered(instance, run)) << "seed " << seed;
    EXPECT_NEAR(run.total_cost, recompute_cost(instance, run), 1e-6);
  }
}

// ------------------------------------------------- randomized schedulers --

TEST(RandomizedSchedulers, DeliverAndAccountConsistently) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Instance instance = testing::make_varied_instance(seed);
    {
      ImpactDispatcher dispatcher;
      PerturbedStableScheduler scheduler(0.3, seed);
      const RunResult run = simulate(instance, dispatcher, scheduler, {});
      EXPECT_TRUE(all_delivered(instance, run));
      EXPECT_NEAR(run.total_cost, recompute_cost(instance, run), 1e-6);
    }
    {
      ImpactDispatcher dispatcher;
      RandomMaximalScheduler scheduler(seed);
      const RunResult run = simulate(instance, dispatcher, scheduler, {});
      EXPECT_TRUE(all_delivered(instance, run));
    }
  }
}

TEST(RandomizedSchedulers, ZeroSigmaMatchesDeterministicAlg) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Instance instance = testing::make_varied_instance(seed);
    ImpactDispatcher d1, d2;
    StableMatchingScheduler deterministic;
    PerturbedStableScheduler perturbed(0.0, 123);
    const double a = simulate(instance, d1, deterministic, {}).total_cost;
    const double b = simulate(instance, d2, perturbed, {}).total_cost;
    EXPECT_DOUBLE_EQ(a, b) << "seed " << seed;
  }
}

// --------------------------------------------- restricted migration mode --

TEST(RedispatchQueued, DeliversWithConsistentAccounting) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Instance instance = testing::make_varied_instance(seed);
    ImpactDispatcher dispatcher;
    StableMatchingScheduler scheduler;
    EngineOptions options;
    options.redispatch_queued = true;
    const RunResult run = simulate(instance, dispatcher, scheduler, options);
    EXPECT_TRUE(all_delivered(instance, run)) << "seed " << seed;
    EXPECT_NEAR(run.total_cost, recompute_cost(instance, run), 1e-6);
  }
}

TEST(RedispatchQueued, EscapesABadCommitment) {
  // Random dispatch may pick the long edge; with migration the queued
  // packet re-routes to the short one before transmitting. Construct a
  // deterministic case: two parallel edges with delays 1 and 4 from the
  // same source; a round-robin dispatcher alternates, so the second packet
  // lands on the delay-4 edge. With migration it can flee back once the
  // delay-1 edge drains.
  Topology g;
  g.add_sources(1);
  g.add_destinations(1);
  const NodeIndex t0 = g.add_transmitter(0);
  const NodeIndex t1 = g.add_transmitter(0);
  const NodeIndex r0 = g.add_receiver(0);
  const NodeIndex r1 = g.add_receiver(0);
  g.add_edge(t0, r0, 1);
  g.add_edge(t1, r1, 4);
  Instance instance(std::move(g), {});
  instance.add_packet(1, 1.0, 0, 0);
  instance.add_packet(1, 1.0, 0, 0);

  RoundRobinDispatcher d1, d2;
  StableMatchingScheduler s1, s2;
  EngineOptions plain;
  const RunResult committed = simulate(instance, d1, s1, plain);
  EngineOptions migratory;
  migratory.redispatch_queued = true;
  const RunResult migrated = simulate(instance, d2, s2, migratory);
  // Committed: p1 on the delay-4 edge pays (4+1)/2 = 2.5; with migration
  // RoundRobin re-offers p1 each step and (cursor advancing) it reaches
  // the drained delay-1 edge. Migration must not be worse here.
  EXPECT_LE(migrated.total_cost, committed.total_cost);
}

// --------------------------------------------------------------- flows --

TEST(Flows, ExpansionMatchesReduction) {
  FlowSet flows(figure2_topology());
  flows.add_flow(1, 6.0, 3, 0, 0);
  flows.add_flow(2, 2.0, 1, 1, 2);
  const Instance instance = flows.to_instance();
  ASSERT_EQ(instance.num_packets(), 4u);
  EXPECT_DOUBLE_EQ(instance.packets()[0].weight, 2.0);
  EXPECT_DOUBLE_EQ(instance.packets()[3].weight, 2.0);
  EXPECT_EQ(flows.packet_to_flow(),
            (std::vector<FlowIndex>{0, 0, 0, 1}));
}

TEST(Flows, ReportAggregatesCompletionAndCost) {
  // One flow of 3 units through a single edge: chunks at steps 1, 2, 3;
  // FCT = completion(4) - arrival(1) = 3; fractional cost = 2 * (1+2+3).
  Topology g;
  g.add_sources(1);
  g.add_destinations(1);
  const NodeIndex t = g.add_transmitter(0);
  const NodeIndex r = g.add_receiver(0);
  g.add_edge(t, r, 1);
  FlowSet flows(std::move(g));
  flows.add_flow(1, 6.0, 3, 0, 0);
  const Instance instance = flows.to_instance();
  const RunResult run = run_alg(instance);
  const FlowReport report = analyze_flows(flows, run);
  ASSERT_EQ(report.flows.size(), 1u);
  EXPECT_EQ(report.flows[0].completion, 4);
  EXPECT_DOUBLE_EQ(report.flows[0].fct, 3.0);
  EXPECT_DOUBLE_EQ(report.flows[0].weighted_fct, 18.0);
  EXPECT_DOUBLE_EQ(report.total_fractional_cost, run.total_cost);
  EXPECT_DOUBLE_EQ(report.mean_fct, 3.0);
}

TEST(Flows, RejectsBadInputs) {
  FlowSet flows(figure2_topology());
  EXPECT_THROW(flows.add_flow(1, 1.0, 0, 0, 0), std::invalid_argument);
  EXPECT_THROW(flows.add_flow(1, 0.0, 1, 0, 0), std::invalid_argument);
  flows.add_flow(3, 1.0, 1, 0, 0);
  EXPECT_THROW(flows.add_flow(2, 1.0, 1, 0, 0), std::invalid_argument);
  // analyze before to_instance / with wrong result.
  RunResult empty;
  EXPECT_THROW(analyze_flows(flows, empty), std::invalid_argument);
}

TEST(Flows, FlowCompletionBeatsBaselinesOnElephants) {
  // Smoke-test the headline metric path end to end: weighted FCT of ALG
  // is no worse than FIFO on a contended elephant/mice mix.
  Rng rng(301);
  TwoTierConfig net;
  net.racks = 4;
  net.lasers_per_rack = 1;
  net.photodetectors_per_rack = 1;
  const Topology topology = build_two_tier(net, rng);
  FlowSet flows(topology);
  Rng traffic(77);
  for (Time step = 1; flows.flows().size() < 40; ++step) {
    const auto src = static_cast<NodeIndex>(traffic.next_below(4));
    auto dst = static_cast<NodeIndex>(traffic.next_below(4));
    if (dst == src) dst = static_cast<NodeIndex>((dst + 1) % 4);
    const bool elephant = traffic.next_bool(0.2);
    flows.add_flow(step, elephant ? 16.0 : 1.0, elephant ? 8 : 1, src, dst);
  }
  const Instance instance = flows.to_instance();

  ImpactDispatcher d1;
  StableMatchingScheduler alg;
  const FlowReport alg_report = analyze_flows(flows, simulate(instance, d1, alg, {}));

  ImpactDispatcher d2;
  FifoScheduler fifo;
  const FlowReport fifo_report = analyze_flows(flows, simulate(instance, d2, fifo, {}));

  EXPECT_LE(alg_report.total_fractional_cost, fifo_report.total_fractional_cost * 1.001);
}

}  // namespace
}  // namespace rdcn

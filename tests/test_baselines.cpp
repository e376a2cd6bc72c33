// Baseline policy tests: every (dispatcher, scheduler) combination
// delivers all packets with consistent accounting; scheduler-specific
// behaviours (max-weight per-step optimality, rotor obliviousness, iSLIP
// matching validity, FIFO ordering) are checked directly.

#include <gtest/gtest.h>

#include <memory>

#include "baseline/dispatchers.hpp"
#include "baseline/schedulers.hpp"
#include "brute_force_matching.hpp"
#include "core/alg.hpp"
#include "helpers.hpp"
#include "net/builders.hpp"
#include "sim/metrics.hpp"

namespace rdcn {
namespace {

std::unique_ptr<DispatchPolicy> make_dispatcher(int kind) {
  switch (kind) {
    case 0: return std::make_unique<ImpactDispatcher>();
    case 1: return std::make_unique<RandomDispatcher>(123);
    case 2: return std::make_unique<RoundRobinDispatcher>();
    case 3: return std::make_unique<JsqDispatcher>();
    case 4: return std::make_unique<MinDelayDispatcher>();
    default: return std::make_unique<DirectOnlyDispatcher>();
  }
}

std::unique_ptr<SchedulePolicy> make_scheduler(int kind, const Topology& topology) {
  switch (kind) {
    case 0: return std::make_unique<StableMatchingScheduler>();
    case 1: return std::make_unique<MaxWeightScheduler>();
    case 2: return std::make_unique<IslipScheduler>(topology);
    case 3: return std::make_unique<RotorScheduler>(topology);
    case 4: return std::make_unique<RandomMaximalScheduler>(321);
    default: return std::make_unique<FifoScheduler>();
  }
}

class PolicyGrid : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PolicyGrid, DeliversEverythingWithConsistentAccounting) {
  const auto [dispatcher_kind, scheduler_kind] = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Instance instance = testing::make_varied_instance(seed);
    auto dispatcher = make_dispatcher(dispatcher_kind);
    auto scheduler = make_scheduler(scheduler_kind, instance.topology());
    const RunResult run = simulate(instance, *dispatcher, *scheduler, {});
    EXPECT_TRUE(all_delivered(instance, run))
        << "dispatcher " << dispatcher_kind << " scheduler " << scheduler_kind
        << " seed " << seed;
    EXPECT_NEAR(run.total_cost, recompute_cost(instance, run), 1e-6);
    EXPECT_GE(run.total_cost, instance.ideal_cost() - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCombos, PolicyGrid,
                         ::testing::Combine(::testing::Range(0, 6), ::testing::Range(0, 6)));

TEST(MaxWeightScheduler, PicksHeaviestCompatibleSet) {
  // Three packets: (t0,r0) w5, (t0,r1) w4, (t1,r0) w3. Stable matching
  // picks {5}, then {4,3}? No: greedy picks 5, blocking both others ->
  // {5}. Max-weight picks {4, 3} (total 7 > 5).
  Topology g;
  g.add_sources(2);
  g.add_destinations(2);
  const NodeIndex t0 = g.add_transmitter(0);
  const NodeIndex t1 = g.add_transmitter(1);
  const NodeIndex r0 = g.add_receiver(0);
  const NodeIndex r1 = g.add_receiver(1);
  g.add_edge(t0, r0, 1);
  g.add_edge(t0, r1, 1);
  g.add_edge(t1, r0, 1);
  Instance instance(std::move(g), {});
  instance.add_packet(1, 5.0, 0, 0);
  instance.add_packet(1, 4.0, 0, 1);
  instance.add_packet(1, 3.0, 1, 0);

  MinDelayDispatcher dispatcher;  // routes are forced (one edge per pair)
  MaxWeightScheduler max_weight;
  EngineOptions options;
  const RunResult run = simulate(instance, dispatcher, max_weight, options);
  // Step 1 transmits p2 and p3 (total weight 7), p1 waits to step 2.
  EXPECT_EQ(run.outcomes[1].chunk_transmit_steps.at(0), 1);
  EXPECT_EQ(run.outcomes[2].chunk_transmit_steps.at(0), 1);
  EXPECT_EQ(run.outcomes[0].chunk_transmit_steps.at(0), 2);

  // Stable matching on the same instance transmits p1 first.
  ImpactDispatcher impact;
  StableMatchingScheduler stable;
  const RunResult stable_run = simulate(instance, impact, stable, {});
  EXPECT_EQ(stable_run.outcomes[0].chunk_transmit_steps.at(0), 1);
}

TEST(RotorScheduler, IsDemandOblivious) {
  // The rotor's active matching depends only on the step index, so a
  // packet must wait for its edge's color slot.
  const Topology g = build_crossbar(3);
  RotorScheduler rotor(g);
  EXPECT_EQ(rotor.cycle_length(), 3);

  Instance instance(g, {});
  instance.add_packet(1, 1.0, 0, 1);
  MinDelayDispatcher dispatcher;
  RotorScheduler scheduler(instance.topology());
  const RunResult run = simulate(instance, dispatcher, scheduler, {});
  EXPECT_TRUE(all_delivered(instance, run));
  // Completion within one full rotor cycle.
  EXPECT_LE(run.outcomes[0].completion, 1 + 3 + 1);
}

TEST(IslipScheduler, ProducesMaximalMatchingUnderFullLoad) {
  // Full crossbar with one packet per (i, i) pair: iSLIP must schedule a
  // perfect matching in the first step (any maximal matching is perfect
  // on disjoint pairs).
  const Topology g = build_crossbar(4);
  Instance instance(g, {});
  for (NodeIndex i = 0; i < 4; ++i) {
    instance.add_packet(1, 1.0, i, (i + 1) % 4);
  }
  MinDelayDispatcher dispatcher;
  IslipScheduler scheduler(instance.topology());
  const RunResult run = simulate(instance, dispatcher, scheduler, {});
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(run.outcomes[static_cast<std::size_t>(i)].chunk_transmit_steps.at(0), 1);
  }
}

TEST(FifoScheduler, ServesInArrivalOrderUnderContention) {
  // Two packets on one edge; the later, heavier packet must NOT overtake.
  Topology g;
  g.add_sources(1);
  g.add_destinations(1);
  const NodeIndex t = g.add_transmitter(0);
  const NodeIndex r = g.add_receiver(0);
  g.add_edge(t, r, 1);
  Instance instance(std::move(g), {});
  instance.add_packet(1, 1.0, 0, 0);
  instance.add_packet(2, 100.0, 0, 0);

  MinDelayDispatcher dispatcher;
  FifoScheduler fifo;
  const RunResult run = simulate(instance, dispatcher, fifo, {});
  EXPECT_EQ(run.outcomes[0].chunk_transmit_steps.at(0), 1);
  EXPECT_EQ(run.outcomes[1].chunk_transmit_steps.at(0), 2);

  // The stable-matching scheduler (weight-aware) would do the same here
  // since p1 transmits before p2 even arrives; contention at step 2+:
  ImpactDispatcher impact;
  StableMatchingScheduler stable;
  const RunResult stable_run = simulate(instance, impact, stable, {});
  EXPECT_EQ(stable_run.total_cost, run.total_cost);
}

TEST(DirectOnlyDispatcher, PrefersFixedLinks) {
  const Instance instance = figure1_instance();
  DirectOnlyDispatcher dispatcher;
  StableMatchingScheduler scheduler;
  const RunResult run = simulate(instance, dispatcher, scheduler, {});
  EXPECT_TRUE(run.outcomes[4].route.use_fixed);  // p5 has a fixed link
  EXPECT_FALSE(run.outcomes[0].route.use_fixed);  // p1 does not
}

TEST(JsqDispatcher, SpreadsLoadAcrossParallelEdges) {
  // Two parallel edges between the same rack pair; JSQ must use both.
  Topology g;
  g.add_sources(1);
  g.add_destinations(1);
  const NodeIndex t0 = g.add_transmitter(0);
  const NodeIndex t1 = g.add_transmitter(0);
  const NodeIndex r0 = g.add_receiver(0);
  const NodeIndex r1 = g.add_receiver(0);
  g.add_edge(t0, r0, 1);
  g.add_edge(t1, r1, 1);
  Instance instance(std::move(g), {});
  instance.add_packet(1, 1.0, 0, 0);
  instance.add_packet(1, 1.0, 0, 0);

  JsqDispatcher dispatcher;
  StableMatchingScheduler scheduler;
  const RunResult run = simulate(instance, dispatcher, scheduler, {});
  EXPECT_NE(run.outcomes[0].route.edge, run.outcomes[1].route.edge);
  EXPECT_EQ(run.makespan, 2);  // both transmitted in step 1
}

TEST(RandomDispatcher, DeterministicUnderSeed) {
  const Instance instance = testing::make_varied_instance(5);
  RandomDispatcher d1(77), d2(77);
  StableMatchingScheduler s1, s2;
  const RunResult a = simulate(instance, d1, s1, {});
  const RunResult b = simulate(instance, d2, s2, {});
  EXPECT_EQ(a.total_cost, b.total_cost);
  for (std::size_t i = 0; i < instance.num_packets(); ++i) {
    EXPECT_EQ(a.outcomes[i].route.edge, b.outcomes[i].route.edge);
  }
}

}  // namespace
}  // namespace rdcn

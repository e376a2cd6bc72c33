// Engine mechanics: dispatch/schedule sequencing, matching enforcement,
// latency accounting identities, gap fast-forwarding, speedup rounds, and
// guard rails (invalid policies, starvation detection).

#include <gtest/gtest.h>

#include "core/alg.hpp"
#include "helpers.hpp"
#include "net/builders.hpp"
#include "sim/metrics.hpp"

namespace rdcn {
namespace {

/// A scheduler that transmits nothing -- used to exercise the starvation
/// guard.
class IdleScheduler final : public SchedulePolicy {
 public:
  void select(const Engine&, Time, const std::vector<Candidate>&, Selection&) override {}
};

/// A scheduler that tries to double-book a transmitter.
class CheatingScheduler final : public SchedulePolicy {
 public:
  void select(const Engine&, Time, const std::vector<Candidate>& candidates,
              Selection& out) override {
    for (std::size_t i = 0; i < candidates.size(); ++i) out.push(i);
  }
};

TEST(Engine, SingleChunkPacketCompletesImmediately) {
  Topology g;
  g.add_sources(1);
  g.add_destinations(1);
  const NodeIndex t = g.add_transmitter(0);
  const NodeIndex r = g.add_receiver(0);
  g.add_edge(t, r, 1);
  Instance instance(std::move(g), {});
  instance.add_packet(1, 2.0, 0, 0);

  const RunResult run = run_alg(instance);
  EXPECT_EQ(run.outcomes[0].completion, 2);
  EXPECT_DOUBLE_EQ(run.total_cost, 2.0);  // weight 2 * latency 1
}

TEST(Engine, MultiChunkPacketStaircase) {
  // One packet on an edge of delay 3: chunks at steps 1, 2, 3;
  // fractional latency = w/3 * (1 + 2 + 3) = 2w.
  Topology g;
  g.add_sources(1);
  g.add_destinations(1);
  const NodeIndex t = g.add_transmitter(0);
  const NodeIndex r = g.add_receiver(0);
  g.add_edge(t, r, 3);
  Instance instance(std::move(g), {});
  instance.add_packet(1, 3.0, 0, 0);

  const RunResult run = run_alg(instance);
  EXPECT_EQ(run.outcomes[0].chunk_transmit_steps,
            (std::vector<Time>{1, 2, 3}));
  EXPECT_EQ(run.outcomes[0].completion, 4);
  EXPECT_DOUBLE_EQ(run.total_cost, 6.0);
  // Matches the base term of Delta: w * (d+1)/2 = 3 * 2 = 6.
}

TEST(Engine, AttachDelaysShiftCompletion) {
  Topology g;
  g.add_sources(1);
  g.add_destinations(1);
  const NodeIndex t = g.add_transmitter(0, /*attach_delay=*/2);
  const NodeIndex r = g.add_receiver(0, /*attach_delay=*/1);
  g.add_edge(t, r, 1);
  Instance instance(std::move(g), {});
  instance.add_packet(1, 1.0, 0, 0);

  const RunResult run = run_alg(instance);
  EXPECT_EQ(run.outcomes[0].completion, 1 + 1 + 2 + 1);  // tau+1+du+dv
  EXPECT_DOUBLE_EQ(run.total_cost, 4.0);
}

TEST(Engine, FastForwardsOverArrivalGaps) {
  Topology g;
  g.add_sources(1);
  g.add_destinations(1);
  const NodeIndex t = g.add_transmitter(0);
  const NodeIndex r = g.add_receiver(0);
  g.add_edge(t, r, 1);
  Instance instance(std::move(g), {});
  instance.add_packet(1, 1.0, 0, 0);
  instance.add_packet(1000, 1.0, 0, 0);

  const RunResult run = run_alg(instance);
  EXPECT_EQ(run.outcomes[1].completion, 1001);
  EXPECT_LT(run.steps_simulated, 10);  // did not tick through the gap
}

TEST(Engine, StarvationGuardThrows) {
  Instance instance = figure2_instance_pi();
  ImpactDispatcher dispatcher;
  IdleScheduler idle;
  EngineOptions options;
  options.max_steps = 100;
  EXPECT_THROW(simulate(instance, dispatcher, idle, options), std::runtime_error);
}

TEST(Engine, RejectsNonMatchingSelections) {
  // Two packets through the same transmitter; the cheating scheduler
  // returns both, which must be rejected.
  Topology g;
  g.add_sources(1);
  g.add_destinations(2);
  const NodeIndex t = g.add_transmitter(0);
  const NodeIndex r1 = g.add_receiver(0);
  const NodeIndex r2 = g.add_receiver(1);
  g.add_edge(t, r1, 1);
  g.add_edge(t, r2, 1);
  Instance instance(std::move(g), {});
  instance.add_packet(1, 1.0, 0, 0);
  instance.add_packet(1, 1.0, 0, 1);

  ImpactDispatcher dispatcher;
  CheatingScheduler cheat;
  EXPECT_THROW(simulate(instance, dispatcher, cheat, {}), std::logic_error);
}

TEST(Engine, SpeedupRoundsAcceleratesDraining) {
  // Heavy contention: one (t, r) pair, several packets. With k rounds per
  // step the queue drains k times faster.
  Topology g;
  g.add_sources(1);
  g.add_destinations(1);
  const NodeIndex t = g.add_transmitter(0);
  const NodeIndex r = g.add_receiver(0);
  g.add_edge(t, r, 1);
  Instance instance(std::move(g), {});
  for (int i = 0; i < 6; ++i) instance.add_packet(1, 1.0, 0, 0);

  EngineOptions slow;
  slow.speedup_rounds = 1;
  EngineOptions fast;
  fast.speedup_rounds = 3;
  ImpactDispatcher d1, d2;
  StableMatchingScheduler s1, s2;
  const RunResult run_slow = simulate(instance, d1, s1, slow);
  const RunResult run_fast = simulate(instance, d2, s2, fast);
  EXPECT_LT(run_fast.total_cost, run_slow.total_cost);
  EXPECT_LE(run_fast.makespan, run_slow.makespan);
  // Serial drain: latencies 1..6 sum to 21; with 3 rounds/step: 1,1,1,2,2,2.
  EXPECT_DOUBLE_EQ(run_slow.total_cost, 21.0);
  EXPECT_DOUBLE_EQ(run_fast.total_cost, 9.0);
}

TEST(Engine, CostIdentitiesOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Instance instance = testing::make_varied_instance(seed);
    const RunResult run = run_alg(instance);
    EXPECT_TRUE(all_delivered(instance, run)) << "seed " << seed;
    EXPECT_NEAR(run.total_cost, recompute_cost(instance, run), 1e-6) << "seed " << seed;
    EXPECT_NEAR(run.total_cost, recompute_cost_active_form(instance, run), 1e-6)
        << "seed " << seed;
    EXPECT_NEAR(run.total_cost, run.reconfig_cost + run.fixed_cost, 1e-6);
    EXPECT_GE(run.total_cost, instance.ideal_cost() - 1e-6);
    const ScheduleSummary summary = summarize(instance, run);
    EXPECT_GT(summary.mean_weighted_latency, 0.0);
    EXPECT_GE(summary.makespan, 1);
  }
}

}  // namespace
}  // namespace rdcn

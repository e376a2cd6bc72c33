// Tests for the output-queueing relaxation bound: hand-checked values,
// validity as a lower bound against every scheduler at unit speed, and
// the crossbar/CIOQ shape of [21].

#include <gtest/gtest.h>

#include "baseline/dispatchers.hpp"
#include "baseline/schedulers.hpp"
#include "core/alg.hpp"
#include "helpers.hpp"
#include "net/builders.hpp"
#include "opt/output_queueing.hpp"

namespace rdcn {
namespace {

TEST(OutputQueueing, SinglePacketPaysOneStep) {
  const Topology g = build_crossbar(2);
  Instance instance(g, {});
  instance.add_packet(1, 3.0, 0, 1);
  EXPECT_DOUBLE_EQ(output_queueing_bound(instance), 3.0);
}

TEST(OutputQueueing, ContendingPacketsServeHeaviestFirst) {
  // Three packets to one output, weights 3, 1, 2, same arrival:
  // order 3, 2, 1 -> latencies 1, 2, 3 -> cost 3*1 + 2*2 + 1*3 = 10.
  const Topology g = build_crossbar(4);
  Instance instance(g, {});
  instance.add_packet(1, 3.0, 0, 3);
  instance.add_packet(1, 1.0, 1, 3);
  instance.add_packet(1, 2.0, 2, 3);
  EXPECT_DOUBLE_EQ(output_queueing_bound(instance), 10.0);
}

TEST(OutputQueueing, MultipleReceiversRaiseCapacity) {
  // Destination with two receivers absorbs two packets per step.
  Topology g;
  g.add_sources(2);
  g.add_destinations(1);
  const NodeIndex t0 = g.add_transmitter(0);
  const NodeIndex t1 = g.add_transmitter(1);
  const NodeIndex r0 = g.add_receiver(0);
  const NodeIndex r1 = g.add_receiver(0);
  g.add_edge(t0, r0, 1);
  g.add_edge(t1, r1, 1);
  Instance instance(std::move(g), {});
  instance.add_packet(1, 1.0, 0, 0);
  instance.add_packet(1, 1.0, 1, 0);
  EXPECT_DOUBLE_EQ(output_queueing_bound(instance), 2.0);  // both in step 1
}

TEST(OutputQueueing, RespectsArrivalGaps) {
  const Topology g = build_crossbar(2);
  Instance instance(g, {});
  instance.add_packet(1, 1.0, 0, 1);
  instance.add_packet(10, 1.0, 0, 1);
  EXPECT_DOUBLE_EQ(output_queueing_bound(instance), 2.0);
}

TEST(OutputQueueing, LowerBoundsEverySchedulerOnCrossbars) {
  // At unit speed on a crossbar with d(e)=1 everywhere, every real
  // schedule obeys the per-output service constraint, so the OQ optimum
  // is a true lower bound.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Topology topology = build_crossbar(6);
    WorkloadConfig traffic;
    traffic.num_packets = 40;
    traffic.arrival_rate = 4.0;
    traffic.skew = PairSkew::Hotspot;
    traffic.weights = WeightDist::UniformInt;
    traffic.seed = seed;
    const Instance instance = generate_workload(topology, traffic);
    const double oq = output_queueing_bound(instance);

    {
      const RunResult run = run_alg(instance);
      EXPECT_GE(run.total_cost, oq - 1e-6) << "ALG, seed " << seed;
    }
    {
      MinDelayDispatcher dispatcher;
      FifoScheduler scheduler;
      const RunResult run = simulate(instance, dispatcher, scheduler, {});
      EXPECT_GE(run.total_cost, oq - 1e-6) << "FIFO, seed " << seed;
    }
  }
}

TEST(OutputQueueing, SpeedupTwoApproachesTheBound) {
  // The CIOQ phenomenon of [21]: with 2 matchings per step, ALG's cost
  // drops to (or below) the unit-speed OQ optimum.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Topology topology = build_crossbar(8);
    WorkloadConfig traffic;
    traffic.num_packets = 80;
    traffic.arrival_rate = 6.0;
    traffic.skew = PairSkew::Uniform;
    traffic.weights = WeightDist::UniformInt;
    traffic.seed = seed * 3;
    const Instance instance = generate_workload(topology, traffic);
    const double oq = output_queueing_bound(instance);

    ImpactDispatcher dispatcher;
    StableMatchingScheduler scheduler;
    EngineOptions options;
    options.speedup_rounds = 2;
    const RunResult run = simulate(instance, dispatcher, scheduler, options);
    EXPECT_LE(run.total_cost, oq * 1.10 + 1e-6) << "seed " << seed;
  }
}

}  // namespace
}  // namespace rdcn

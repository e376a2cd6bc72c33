// Tests of the metric helpers: a large integration "soak" run asserting
// every invariant at once on a 2000-packet instance.

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/alg.hpp"
#include "core/charging.hpp"
#include "core/dual_witness.hpp"
#include "helpers.hpp"
#include "net/builders.hpp"
#include "sim/metrics.hpp"
#include "util/stats.hpp"

namespace rdcn {
namespace {

TEST(Soak, TwoThousandPacketsAllInvariants) {
  Rng rng(2024);
  TwoTierConfig net;
  net.racks = 16;
  net.lasers_per_rack = 2;
  net.photodetectors_per_rack = 2;
  net.density = 0.4;
  net.max_edge_delay = 3;
  net.fixed_link_delay = 20;
  const Topology topology = build_two_tier(net, rng);
  WorkloadConfig traffic;
  traffic.num_packets = 2000;
  traffic.arrival_rate = 8.0;
  traffic.skew = PairSkew::Zipf;
  traffic.weights = WeightDist::UniformInt;
  traffic.weight_max = 20;
  traffic.bursty = true;
  traffic.seed = 99;
  const Instance instance = generate_workload(topology, traffic);
  ASSERT_EQ(instance.validate(), "");

  const RunResult run = run_alg(instance);
  EXPECT_TRUE(all_delivered(instance, run));
  EXPECT_NEAR(run.total_cost, recompute_cost(instance, run), 1e-5);
  EXPECT_NEAR(run.total_cost, recompute_cost_active_form(instance, run), 1e-5);

  const DualWitness witness = build_dual_witness(instance, run);
  EXPECT_LT(lemma1_gap(witness, run), 1e-5);
  EXPECT_LE(run.total_cost, witness.sum_alpha + 1e-5);

  const ChargingAudit audit = audit_charging(instance, run);
  EXPECT_LE(audit.max_overcharge, 1e-6);
  EXPECT_LT(audit.cover_gap, 1e-5);

  const ExactChargingAudit exact = audit_charging_exact(instance, run);
  EXPECT_TRUE(exact.charges_cover_cost);
  EXPECT_TRUE(exact.within_alpha);

  // Serialization of a big instance round-trips too.
  const Instance reloaded = Instance::from_string(instance.to_string());
  EXPECT_EQ(reloaded.to_string(), instance.to_string());
}

TEST(StreamTelemetry, FlushesThePartialFinalWindow) {
  // A span that is not a multiple of the window: the trailing partial
  // window must be kept by finish(), so the series totals tile the run.
  StreamTelemetry telemetry(4);
  for (Time t = 1; t <= 10; ++t) telemetry.on_step(t, 2, 1, 5);
  const auto& series = telemetry.finish();
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0].steps, 4);
  EXPECT_EQ(series[1].steps, 4);
  EXPECT_EQ(series[2].steps, 2);  // partial, not dropped
  EXPECT_EQ(series[2].start, 9);
  Time steps = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t served = 0;
  for (const StreamWindow& window : series) {
    steps += window.steps;
    arrivals += window.arrivals;
    served += window.served;
    EXPECT_DOUBLE_EQ(window.mean_backlog, 5.0);
  }
  EXPECT_EQ(steps, 10);
  EXPECT_EQ(arrivals, 20u);
  EXPECT_EQ(served, 10u);
  EXPECT_EQ(telemetry.finish().size(), 3u);  // idempotent
}

TEST(StreamTelemetry, BoundaryRetirementsFoldIntoTheTrailingWindow) {
  // Stage mutations retire packets between steps (requeue onto the fixed
  // layer completes them inside apply_mutation); absorb_boundary must keep
  // the series served total equal to the run's.
  StreamTelemetry closed(4);
  for (Time t = 1; t <= 4; ++t) closed.on_step(t, 1, 1, 2);
  closed.absorb_boundary(3);  // last window already flushed
  const auto& series = closed.finish();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].served, 7u);

  StreamTelemetry open(4);
  open.on_step(1, 1, 1, 2);
  open.absorb_boundary(2);  // open partial window absorbs them
  const auto& partial = open.finish();
  ASSERT_EQ(partial.size(), 1u);
  EXPECT_EQ(partial[0].served, 3u);
  EXPECT_EQ(partial[0].steps, 1);

  StreamTelemetry none(4);
  none.absorb_boundary(1);  // no steps at all: still surfaced at finish
  ASSERT_EQ(none.finish().size(), 1u);
  EXPECT_EQ(none.windows()[0].served, 1u);
  EXPECT_EQ(none.windows()[0].steps, 0);
}

TEST(LatencyHistogram, EmptySentinelsAndPercentileThrow) {
  const LatencyHistogram empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.min(), 0);
  EXPECT_EQ(empty.max(), 0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_THROW(empty.percentile(50.0), std::logic_error);
}

TEST(LatencyHistogram, MergeEdgeCases) {
  LatencyHistogram a;
  a.add(5);
  a.add(100);
  LatencyHistogram b;
  b.add(7);

  // Merging an empty histogram must not drag min/max to the 0 sentinels.
  LatencyHistogram with_empty = a;
  with_empty.merge(LatencyHistogram{});
  EXPECT_EQ(with_empty.count(), 2u);
  EXPECT_EQ(with_empty.min(), 5);
  EXPECT_EQ(with_empty.max(), 100);

  // Merging INTO an empty histogram adopts the other's extremes.
  LatencyHistogram from_empty;
  from_empty.merge(a);
  EXPECT_EQ(from_empty.min(), 5);
  EXPECT_EQ(from_empty.max(), 100);
  EXPECT_EQ(from_empty.count(), 2u);

  // Merge is order-independent.
  LatencyHistogram ab = a;
  ab.merge(b);
  LatencyHistogram ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.count(), ba.count());
  EXPECT_EQ(ab.min(), ba.min());
  EXPECT_EQ(ab.max(), ba.max());
  EXPECT_EQ(ab.p50(), ba.p50());
  EXPECT_EQ(ab.p99(), ba.p99());
  EXPECT_DOUBLE_EQ(ab.mean(), ba.mean());

  // Mismatched layouts refuse to merge, even when the source is empty.
  EXPECT_THROW(ab.merge(LatencyHistogram{6}), std::invalid_argument);
}

}  // namespace
}  // namespace rdcn

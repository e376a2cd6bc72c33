// The incremental impact index (sim/impact_index.hpp), pinned at three
// levels:
//
//  1. unit: ImpactAggregate against hand-built multisets, including the
//     canonical-shape guarantee -- any insertion/removal history of the
//     same multiset yields BIT-identical counts and weight sums -- and the
//     index's exact count lines against those treap aggregates, bit for
//     bit, through dictionary growth and every way the exact-sums gate
//     can fail;
//  2. differential: check_impact_index replays ALG over the topology zoo
//     and the random instance family, cross-validating the live index
//     against the naive scan and a fresh canonical rebuild at every
//     candidate edge of every dispatch;
//  3. golden: schedule hashes of all 12 registry policies over four zoo
//     shapes, captured from pre-index main -- the index refactor changed
//     no schedule anywhere.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "check/differential.hpp"
#include "core/alg.hpp"
#include "helpers.hpp"
#include "net/builders.hpp"
#include "run/policies.hpp"
#include "sim/engine.hpp"
#include "sim/impact_index.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace rdcn {
namespace {

// --------------------------------------------------------------------------
// 1. ImpactAggregate units

TEST(ImpactAggregate, HandMultiset) {
  // Chunks: 3 @ 0.5, 2 @ 1.0, 4 @ 2.0.
  ImpactAggregate agg;
  agg.add(1.0, 2);
  agg.add(0.5, 3);
  agg.add(2.0, 4);
  EXPECT_EQ(agg.chunks(), 9);

  const WeightBelow none = agg.below(0.25);
  EXPECT_EQ(none.chunks, 0);
  EXPECT_DOUBLE_EQ(none.weight, 0.0);

  // Strictly below 1.0: only the 0.5s; the 1.0s tie upward (>= is H).
  const WeightBelow below_one = agg.below(1.0);
  EXPECT_EQ(below_one.chunks, 3);
  EXPECT_DOUBLE_EQ(below_one.weight, 1.5);

  const WeightBelow below_all = agg.below(3.0);
  EXPECT_EQ(below_all.chunks, 9);
  EXPECT_DOUBLE_EQ(below_all.weight, 1.5 + 2.0 + 8.0);
}

TEST(ImpactAggregate, CanonicalShapeIsHistoryIndependent) {
  // The same final multiset reached through three different histories
  // (sorted inserts; reverse inserts; overshoot-then-remove with key
  // churn) must produce bit-identical sums at every threshold.
  const std::vector<double> keys = {0.125, 0.2, 1.0 / 3.0, 0.5, 0.7, 1.0, 1.5, 4.0};
  const std::vector<std::int64_t> counts = {3, 1, 7, 2, 5, 1, 4, 2};

  ImpactAggregate sorted, reversed, churned;
  for (std::size_t i = 0; i < keys.size(); ++i) sorted.add(keys[i], counts[i]);
  for (std::size_t i = keys.size(); i-- > 0;) reversed.add(keys[i], counts[i]);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    churned.add(keys[i], counts[i] + 5);
    churned.add(keys[(i + 3) % keys.size()], 2);  // transient extra mass
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    churned.add(keys[i], -5);
    churned.add(keys[(i + 3) % keys.size()], -2);
  }

  for (const double threshold : {0.1, 0.2, 0.4, 0.5, 0.9, 1.0, 2.0, 10.0}) {
    const WeightBelow a = sorted.below(threshold);
    const WeightBelow b = reversed.below(threshold);
    const WeightBelow c = churned.below(threshold);
    EXPECT_EQ(a.chunks, b.chunks) << threshold;
    EXPECT_EQ(a.chunks, c.chunks) << threshold;
    // Bitwise, not NEAR: the canonical treap shape fixes the bracketing.
    EXPECT_EQ(a.weight, b.weight) << threshold;
    EXPECT_EQ(a.weight, c.weight) << threshold;
  }
  EXPECT_EQ(sorted.chunks(), reversed.chunks());
  EXPECT_EQ(sorted.chunks(), churned.chunks());
}

TEST(ImpactAggregate, RemovalToEmptyAndReuse) {
  ImpactAggregate agg;
  for (int round = 0; round < 3; ++round) {
    agg.add(0.5, 2);
    agg.add(1.5, 1);
    EXPECT_EQ(agg.chunks(), 3);
    agg.add(0.5, -2);
    agg.add(1.5, -1);
    EXPECT_EQ(agg.chunks(), 0);
    EXPECT_EQ(agg.below(10.0).chunks, 0);
    EXPECT_DOUBLE_EQ(agg.below(10.0).weight, 0.0);
  }
}

TEST(ImpactAggregate, RandomizedAgainstFlatReference) {
  // Counts are exact against a flat reference at every probe; the weight
  // sum agrees with a flat double sum to reassociation tolerance and with
  // an independently-ordered aggregate bitwise.
  Rng rng(7);
  ImpactAggregate agg;
  std::vector<std::pair<double, std::int64_t>> reference;  // key -> count
  for (int step = 0; step < 4000; ++step) {
    // Keys from a small pool so removals hit existing keys.
    const double key =
        static_cast<double>(1 + rng.next_below(40)) / static_cast<double>(1 + rng.next_below(7));
    auto it = std::find_if(reference.begin(), reference.end(),
                           [&](const auto& kv) { return kv.first == key; });
    const bool remove = it != reference.end() && rng.next_below(3) == 0;
    if (remove) {
      agg.add(key, -it->second);
      reference.erase(it);
    } else {
      const auto delta = static_cast<std::int64_t>(1 + rng.next_below(5));
      agg.add(key, delta);
      if (it == reference.end()) {
        reference.emplace_back(key, delta);
      } else {
        it->second += delta;
      }
    }
    if (step % 97 != 0) continue;
    const double threshold =
        static_cast<double>(1 + rng.next_below(40)) / static_cast<double>(1 + rng.next_below(7));
    std::int64_t want_chunks = 0, want_total = 0;
    double want_weight = 0.0;
    for (const auto& [k, count] : reference) {
      want_total += count;
      if (k < threshold) {
        want_chunks += count;
        want_weight += static_cast<double>(count) * k;
      }
    }
    const WeightBelow got = agg.below(threshold);
    EXPECT_EQ(got.chunks, want_chunks);
    EXPECT_EQ(agg.chunks(), want_total);
    EXPECT_NEAR(got.weight, want_weight, 1e-9 * (1.0 + want_weight));

    ImpactAggregate rebuilt;  // sorted-order rebuild: bitwise equal
    std::vector<std::pair<double, std::int64_t>> sorted = reference;
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [k, count] : sorted) rebuilt.add(k, count);
    EXPECT_EQ(rebuilt.below(threshold).weight, got.weight);
  }
}

// --------------------------------------------------------------------------
// 1b. Exact count lines vs treap aggregates

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// A two-tier pod on delays 1-2.
Topology exact_topology() {
  TwoTierConfig net;
  net.racks = 6;
  net.lasers_per_rack = 2;
  net.photodetectors_per_rack = 2;
  net.density = 0.6;
  net.max_edge_delay = 2;
  Rng rng(13);
  return build_two_tier(net, rng);
}

/// A hand-driven pending multiset, fed to an ImpactIndex through
/// add_chunks the way the engine feeds it, and the oracle the differential
/// checker builds: three ImpactAggregates per edge over the same list,
/// combined by combine_impact.
class PendingModel {
 public:
  explicit PendingModel(Topology topology) : topology_(std::move(topology)) {
    index_.attach(topology_);
  }
  // The index points at the member topology.
  PendingModel(const PendingModel&) = delete;
  PendingModel& operator=(const PendingModel&) = delete;
  const ImpactIndex& index() const { return index_; }
  const Topology& topology() const { return topology_; }
  std::size_t size() const { return pending_.size(); }

  void add(EdgeIndex e, double chunk_weight, std::int64_t chunks) {
    Candidate c;
    c.packet = next_id_++;
    c.edge = e;
    c.transmitter = topology_.edge(e).transmitter;
    c.receiver = topology_.edge(e).receiver;
    c.chunk_weight = chunk_weight;
    c.remaining = chunks;
    pending_.push_back(c);
    index_.add_chunks(c.transmitter, c.receiver, e, chunk_weight, chunks);
  }
  /// One chunk of the i-th pending packet served; it leaves at zero.
  void serve(std::size_t i) {
    Candidate& c = pending_[i];
    index_.add_chunks(c.transmitter, c.receiver, c.edge, c.chunk_weight, -1);
    if (--c.remaining == 0) pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
  }
  /// The i-th pending packet unlisted with all its remaining chunks.
  void remove(std::size_t i) {
    const Candidate c = pending_[i];
    index_.add_chunks(c.transmitter, c.receiver, c.edge, c.chunk_weight, -c.remaining);
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
  }
  /// Rebuilds from the list, as the engine does on a query while the
  /// weight structures are down (or to force one).
  void rebuild() {
    index_.rebuild([this](const auto& add) {
      for (const Candidate& c : pending_) add(c);
    });
  }

  ImpactSplit split(EdgeIndex e, double threshold) {
    if (!index_.weight_ready()) rebuild();
    return index_.edge_split(e, threshold);
  }

  ImpactSplit oracle(EdgeIndex e, double threshold) const {
    const ReconfigEdge& edge = topology_.edge(e);
    ImpactAggregate t, r, pair;
    for (const Candidate& c : pending_) {
      const bool at_t = c.transmitter == edge.transmitter;
      const bool at_r = c.receiver == edge.receiver;
      if (at_t) t.add(c.chunk_weight, c.remaining);
      if (at_r) r.add(c.chunk_weight, c.remaining);
      if (at_t && at_r) pair.add(c.chunk_weight, c.remaining);
    }
    return combine_impact(t.chunks(), t.below(threshold), r.chunks(), r.below(threshold),
                          pair.chunks(), pair.below(threshold));
  }

  /// Every edge at every threshold: the live split equals the oracle's bits.
  void expect_matches_oracle(const std::vector<double>& thresholds, const std::string& where) {
    for (EdgeIndex e = 0; e < topology_.num_edges(); ++e) {
      for (const double threshold : thresholds) {
        const ImpactSplit live = split(e, threshold);
        const ImpactSplit want = oracle(e, threshold);
        ASSERT_EQ(live.heavier, want.heavier) << where << " edge " << e << " at " << threshold;
        ASSERT_EQ(bits(live.lighter_weight), bits(want.lighter_weight))
            << where << " edge " << e << " at " << threshold << ": " << live.lighter_weight
            << " vs " << want.lighter_weight;
      }
    }
  }

  EdgeIndex random_edge(Rng& rng) const {
    return static_cast<EdgeIndex>(
        rng.next_below(static_cast<std::uint64_t>(topology_.num_edges())));
  }

 private:
  Topology topology_;
  ImpactIndex index_;
  std::vector<Candidate> pending_;
  PacketIndex next_id_ = 0;
};

/// Chunk weights of the benchmark workloads: integer weights 1-10 over
/// delays 1-2, probed at, between and beyond them -- including thresholds
/// off the 2^-16 grid a hair above and below admitted weights, as an
/// inexact packet's own w_p/d(e) is.
double benchmark_chunk_weight(Rng& rng) {
  return static_cast<double>(rng.next_int(1, 10)) / static_cast<double>(rng.next_int(1, 2));
}
const std::vector<double> kProbeThresholds = {
    0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.5, 3.0, 4.5, 5.0, 7.5, 10.0, 11.0, 1.0 / 3.0,
    std::nextafter(1.0, 2.0), 1.0 + 0x1p-20, std::nextafter(5.0, 0.0), 4.5 + 0x1p-17};

TEST(ImpactIndexExact, SplitsMatchTreapAggregatesBitForBit) {
  PendingModel model(exact_topology());
  Rng rng(41);
  // Pending state before the first query, as at the engine's lazy enable.
  for (int i = 0; i < 40; ++i) {
    model.add(model.random_edge(rng), benchmark_chunk_weight(rng), rng.next_int(1, 2));
  }
  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t op = rng.next_below(4);
    if (op < 2 || model.size() == 0) {
      model.add(model.random_edge(rng), benchmark_chunk_weight(rng), rng.next_int(1, 2));
    } else if (op == 2) {
      model.serve(rng.next_below(model.size()));
    } else {
      model.remove(rng.next_below(model.size()));
    }
    if (step % 150 == 0) {
      model.expect_matches_oracle(kProbeThresholds, "step " + std::to_string(step));
      ASSERT_TRUE(model.index().exact()) << "step " << step;
    }
  }
  while (model.size() > 0) model.serve(0);
  model.expect_matches_oracle(kProbeThresholds, "drained");
  EXPECT_TRUE(model.index().exact());
  // At most one line per transmitter, receiver and pair aggregate.
  const Topology& topology = model.topology();
  EXPECT_LE(model.index().live_entries(),
            static_cast<std::size_t>(topology.num_transmitters() + topology.num_receivers() +
                                     model.index().num_pairs()));
}

TEST(ImpactIndexExact, DictionaryGrowsUnderLiveLines) {
  // Lines are live when weights arrive below, between and above the
  // admitted ones: every line shifts to open the new slot.
  PendingModel model(exact_topology());
  Rng rng(43);
  for (int i = 0; i < 30; ++i) {
    model.add(model.random_edge(rng), 2.0 * static_cast<double>(rng.next_int(1, 3)), 2);
  }
  model.expect_matches_oracle(kProbeThresholds, "weights 2, 4, 6");
  for (const double weight : {4.0, 1.0, 0.25, 5.0, 8.0, 0.5}) {
    for (int i = 0; i < 6; ++i) model.add(model.random_edge(rng), 6.0, 1);
    for (int i = 0; i < 4; ++i) model.add(model.random_edge(rng), weight, 2);
    model.expect_matches_oracle(kProbeThresholds, "after weight " + std::to_string(weight));
  }
  for (std::size_t i = 0; i < model.size(); i += 3) model.serve(i);
  model.expect_matches_oracle(kProbeThresholds, "after service");
  EXPECT_TRUE(model.index().exact());
  EXPECT_EQ(model.index().rebuilds(), 1u);  // grown in place, never rebuilt
}

/// One way to fail the exact-sums gate: `fail(model, rng)` makes the update
/// that must flip the index to the treaps.
struct GateFailure {
  const char* name;
  void (*fail)(PendingModel& model, Rng& rng);
};

const GateFailure kGateFailures[] = {
    {"a w/3 weight",
     [](PendingModel& m, Rng& rng) { m.add(m.random_edge(rng), 7.0 / 3.0, 3); }},
    {"a weight of 2^15", [](PendingModel& m, Rng& rng) { m.add(m.random_edge(rng), 32768.0, 1); }},
    {"a weight finer than 2^-16",
     [](PendingModel& m, Rng& rng) {
       // Its 2^-16 units truncate to those of the admitted weight 1.
       m.add(m.random_edge(rng), 1.0 + 0x1p-17, 1);
     }},
    {"a weight below 2^-16", [](PendingModel& m, Rng& rng) { m.add(m.random_edge(rng), 0x1p-17, 1); }},
    {"a 17th distinct weight",
     [](PendingModel& m, Rng& rng) {
       // The model holds chunk weights from {0.5, 1, ..., 10}: 15 of them.
       m.add(m.random_edge(rng), 0.25, 1);  // the 16th still fits
       ASSERT_TRUE(m.index().exact());
       m.add(m.random_edge(rng), 0.125, 1);
     }},
    {"pending units past 2^52",
     [](PendingModel& m, Rng& rng) {
       // 2^36 chunks of weight 1 are 2^52 units on their own.
       m.add(m.random_edge(rng), 1.0, (std::int64_t{1} << 36) + 1);
     }},
};

TEST(ImpactIndexExact, EachGateFailureFallsBackForGood) {
  for (const GateFailure& failure : kGateFailures) {
    SCOPED_TRACE(failure.name);
    PendingModel model(exact_topology());
    Rng rng(47);
    for (int i = 0; i < 60; ++i) {
      model.add(model.random_edge(rng), benchmark_chunk_weight(rng), rng.next_int(1, 2));
    }
    for (const double weight : {0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 6.0, 7.0,
                                8.0, 9.0, 10.0}) {
      model.add(model.random_edge(rng), weight, 1);  // all 15 benchmark weights
    }
    model.expect_matches_oracle(kProbeThresholds, "before");
    ASSERT_TRUE(model.index().exact());

    failure.fail(model, rng);
    EXPECT_FALSE(model.index().exact());
    EXPECT_FALSE(model.index().weight_ready());  // the lines are gone
    model.expect_matches_oracle(kProbeThresholds, "fallen back");

    // The offending packet leaves and only exact weights follow; a
    // rebuild of the now exact multiset still takes the treaps.
    model.remove(model.size() - 1);
    for (int i = 0; i < 20; ++i) {
      model.add(model.random_edge(rng), benchmark_chunk_weight(rng), 1);
      model.serve(rng.next_below(model.size()));
    }
    model.expect_matches_oracle(kProbeThresholds, "after");
    model.rebuild();
    model.expect_matches_oracle(kProbeThresholds, "rebuilt");
    EXPECT_FALSE(model.index().exact());
  }
}

TEST(ImpactIndexExact, PendingUnitsMayReachTwoToThe52) {
  PendingModel model(exact_topology());
  model.rebuild();  // enabled on the empty multiset
  model.add(0, 1.0, std::int64_t{1} << 36);  // exactly 2^52 units
  model.expect_matches_oracle({0.5, 1.0, 2.0}, "at 2^52");
  EXPECT_TRUE(model.index().exact());
  model.add(1, 0x1p-16, 1);  // one unit more
  EXPECT_FALSE(model.index().exact());
  model.expect_matches_oracle({0x1p-16, 0.5, 1.0, 2.0}, "past 2^52");
}

TEST(ImpactIndexExact, RebuildMeetingAnInexactWeightTakesTheTreaps) {
  PendingModel model(exact_topology());
  Rng rng(53);
  for (int i = 0; i < 30; ++i) {
    model.add(model.random_edge(rng), benchmark_chunk_weight(rng), rng.next_int(1, 2));
  }
  model.add(model.random_edge(rng), 0.1, 1);  // not a multiple of 2^-16
  model.expect_matches_oracle(kProbeThresholds, "first query");
  EXPECT_FALSE(model.index().exact());
  EXPECT_EQ(model.index().rebuilds(), 1u);
}

// --------------------------------------------------------------------------
// 2. Differential: live index vs scan vs fresh rebuild, over real runs

struct ZooCase {
  const char* name;
  Topology topology;
  PairSkew skew;
};

std::vector<ZooCase> zoo_cases() {
  std::vector<ZooCase> cases;
  cases.push_back({"crossbar6", build_crossbar(6), PairSkew::Uniform});
  {
    TwoTierConfig net;
    net.racks = 8;
    net.lasers_per_rack = 2;
    net.photodetectors_per_rack = 2;
    net.density = 0.5;
    net.max_edge_delay = 3;
    Rng rng(5);
    cases.push_back({"two_tier8x2", build_two_tier(net, rng), PairSkew::Hotspot});
  }
  {
    TwoTierConfig net;
    net.racks = 6;
    net.lasers_per_rack = 2;
    net.photodetectors_per_rack = 2;
    net.density = 0.6;
    net.max_edge_delay = 2;
    net.fixed_link_delay = 6;
    Rng rng(11);
    cases.push_back({"hybrid6x2", build_two_tier(net, rng), PairSkew::Incast});
  }
  {
    ExpanderConfig net;
    net.racks = 10;
    net.degree = 3;
    net.lasers_per_rack = 2;
    net.photodetectors_per_rack = 2;
    net.max_edge_delay = 2;
    Rng rng(9);
    cases.push_back({"expander10d3", build_expander(net, rng), PairSkew::Uniform});
  }
  return cases;
}

Instance zoo_instance(const ZooCase& shape) {
  WorkloadConfig workload;
  workload.num_packets = 120;
  workload.arrival_rate = 4.0;
  workload.skew = shape.skew;
  workload.weights = WeightDist::UniformInt;
  workload.weight_max = 10;
  workload.seed = 29;
  return generate_workload(shape.topology, workload);
}

TEST(ImpactIndexDifferential, ZooShapes) {
  for (const ZooCase& shape : zoo_cases()) {
    check::DiffReport report;
    check::check_impact_index(zoo_instance(shape), report);
    EXPECT_TRUE(report.ok()) << shape.name << ": " << report.to_string();
  }
}

class ImpactIndexProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ImpactIndexProperty, IndexMatchesOraclesEverywhere) {
  check::DiffReport report;
  check::check_impact_index(testing::make_varied_instance(GetParam()), report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

INSTANTIATE_TEST_SUITE_P(VariedInstances, ImpactIndexProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 101, 104,
                                           107, 110, 113, 116, 119, 122));

TEST(ImpactIndexLifecycle, NonImpactPoliciesNeverEnableWeightStructures) {
  // JSQ reads only the O(1) counters; the weight structures must stay
  // off for the entire run (no rebuilds, no live entries, no decay churn).
  const Instance instance = testing::make_varied_instance(105);
  const PolicyFactory policy = named_policy("jsq");
  auto dispatcher = policy.dispatcher();
  auto scheduler = policy.scheduler(instance.topology());
  Engine engine(instance, *dispatcher, *scheduler, {});
  ASSERT_FALSE(engine.impact_index().weight_ready());
  engine.run();
  EXPECT_FALSE(engine.impact_index().weight_ready());
  EXPECT_EQ(engine.impact_index().rebuilds(), 0u);
  EXPECT_EQ(engine.impact_index().live_entries(), 0u);
}

TEST(ImpactIndexLifecycle, FallenBackIndexPassesCrosscheckAgainstExactRebuild) {
  // The live index meets a w/3 chunk weight and falls back to the treaps
  // for good. Once that packet has retired, the fresh index that
  // apply_mutation's cross-check rebuilds from the queues is exact again,
  // and the two must still agree bit for bit.
  const Topology topology = exact_topology();
  ImpactDispatcher dispatcher;
  StableMatchingScheduler scheduler;
  bool light_retired = false;
  Engine engine(topology, dispatcher, scheduler, {}, [&](RetiredPacket&& retired) {
    if (retired.id == 0) light_retired = true;
  });
  Rng rng(59);
  PacketIndex id = 0;
  const auto inject = [&](double weight) {
    for (;;) {
      const auto s = static_cast<NodeIndex>(
          rng.next_below(static_cast<std::uint64_t>(topology.num_sources())));
      const auto d = static_cast<NodeIndex>(
          rng.next_below(static_cast<std::uint64_t>(topology.num_destinations())));
      if (!topology.routable(s, d)) continue;
      engine.inject(Packet{id++, engine.now(), weight, s, d});
      return;
    }
  };
  Time next = 1;
  engine.begin_step(&next);
  inject(1.0 / 3.0);
  engine.finish_step();
  EXPECT_FALSE(engine.impact_index().exact());
  for (int step = 0; step < 400 && !light_retired; ++step) {
    ++next;
    engine.begin_step(&next);
    inject(static_cast<double>(rng.next_int(1, 10)));
    engine.finish_step();
  }
  ASSERT_TRUE(light_retired);
  ++next;
  engine.begin_step(&next);
  // Queries after the fallback keep the treaps up; a burst leaves some
  // packets queued for the cross-check.
  for (int i = 0; i < 12; ++i) inject(4.0);
  engine.finish_step();
  ASSERT_TRUE(engine.impact_index().weight_ready());

  ImpactIndex fresh;
  fresh.attach(topology);
  engine.for_each_pending([&fresh](const Candidate& c) {
    fresh.add_chunks(c.transmitter, c.receiver, c.edge, c.chunk_weight, c.remaining);
  });
  fresh.rebuild([&engine](const auto& add) { engine.for_each_pending(add); });
  ASSERT_TRUE(fresh.exact()) << "the scenario needs an exact multiset at the mutation";
  ASSERT_GT(engine.pending_count(), 0u);

  StageMutation kill;
  kill.kill_edges = {0};
  kill.dead_policy = DeadPolicy::Requeue;
  EXPECT_NO_THROW(engine.apply_mutation(kill));
  EXPECT_FALSE(engine.impact_index().exact());
}

/// The decay rule (sim/impact_index.hpp, LIFECYCLE) on the model's
/// current representation: max(256, 8 * min(T, R)) updates with no query
/// between them keep the weight structures, one more drops them, and the
/// next query rebuilds them with the oracle's bits.
void expect_decay_rule(PendingModel& model, Rng& rng) {
  const Topology& topology = model.topology();
  const auto decay_after = std::max<std::size_t>(
      256, 8 * static_cast<std::size_t>(
                   std::min(topology.num_transmitters(), topology.num_receivers())));
  // Query-free updates, alternating arrivals and served chunks so the
  // multiset stays small.
  const auto update = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      if (i % 2 == 0 || model.size() == 0) {
        model.add(model.random_edge(rng), benchmark_chunk_weight(rng),
                  rng.next_int(1, 2));
      } else {
        model.serve(rng.next_below(model.size()));
      }
    }
  };
  model.expect_matches_oracle(kProbeThresholds, "enabled");  // a query restarts the count
  const bool exact = model.index().exact();
  const std::uint64_t rebuilds = model.index().rebuilds();

  update(decay_after);
  EXPECT_TRUE(model.index().weight_ready());
  EXPECT_GT(model.index().live_entries(), 0u);
  model.expect_matches_oracle(kProbeThresholds, "at the threshold");
  EXPECT_EQ(model.index().rebuilds(), rebuilds);

  update(decay_after);
  ASSERT_TRUE(model.index().weight_ready());
  update(1);
  EXPECT_FALSE(model.index().weight_ready());
  EXPECT_EQ(model.index().live_entries(), 0u);
  model.expect_matches_oracle(kProbeThresholds, "one past the threshold");
  EXPECT_EQ(model.index().rebuilds(), rebuilds + 1);
  EXPECT_EQ(model.index().exact(), exact);
}

TEST(ImpactIndexLifecycle, CountLinesDecayOnePastTheThreshold) {
  PendingModel model(exact_topology());
  Rng rng(61);
  for (int i = 0; i < 40; ++i) {
    model.add(model.random_edge(rng), benchmark_chunk_weight(rng), rng.next_int(1, 2));
  }
  expect_decay_rule(model, rng);
  EXPECT_TRUE(model.index().exact());
}

TEST(ImpactIndexLifecycle, TreapsDecayOnePastTheThreshold) {
  PendingModel model(exact_topology());
  Rng rng(67);
  for (int i = 0; i < 40; ++i) {
    model.add(model.random_edge(rng), benchmark_chunk_weight(rng), rng.next_int(1, 2));
  }
  model.add(model.random_edge(rng), 0.1, 1);  // not a multiple of 2^-16
  expect_decay_rule(model, rng);
  EXPECT_FALSE(model.index().exact());
}

TEST(ImpactIndexLifecycle, CountersDrainToZero) {
  for (const char* name : {"alg", "jsq", "fifo"}) {
    const Instance instance = testing::make_varied_instance(103);
    const PolicyFactory policy = named_policy(name);
    auto dispatcher = policy.dispatcher();
    auto scheduler = policy.scheduler(instance.topology());
    Engine engine(instance, *dispatcher, *scheduler, {});
    engine.run();
    const ImpactIndex& index = engine.impact_index();
    for (EdgeIndex e = 0; e < instance.topology().num_edges(); ++e) {
      EXPECT_EQ(index.edge_load(e), 0) << name << " edge " << e;
    }
  }
}

// --------------------------------------------------------------------------
// 3. Schedule goldens: all 12 registry policies, captured pre-index

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t schedule_hash(const std::vector<PacketOutcome>& outcomes) {
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

struct ZooGolden {
  const char* shape;
  const char* policy;
  double cost;
  Time makespan;
  std::uint64_t hash;
};

// Captured on pre-index main (PR 5 head) with the identical zoo_cases /
// zoo_instance code above. The index must not flip a single decision.
// Exception: `random`'s rows were re-pinned when select() moved from the
// whole backlog to the per-edge head list -- its shuffle now ranges over
// each edge's priority and arrival heads only, so its draws changed, and
// with them its schedule on three of the four shapes (expander10d3's row
// stayed). Every other policy is bit-identical across that change.
constexpr ZooGolden kZooGoldens[] = {
    {"crossbar6", "alg", 1339, 33, 0x2b059e493820232cULL},
    {"crossbar6", "maxweight", 1280, 34, 0xb77adf6f2b8d70e4ULL},
    {"crossbar6", "islip", 2079, 35, 0x88c35e53096bfe00ULL},
    {"crossbar6", "rotor", 5334, 63, 0xfec60f08de77a9d0ULL},
    {"crossbar6", "random", 1860, 35, 0x7dcaffcc88d4af1cULL},
    {"crossbar6", "fifo", 1810, 33, 0xc299fb7a27dbcefcULL},
    {"crossbar6", "impact", 1339, 33, 0x2b059e493820232cULL},
    {"crossbar6", "random-dispatch", 1339, 33, 0x2b059e493820232cULL},
    {"crossbar6", "round-robin", 1339, 33, 0x2b059e493820232cULL},
    {"crossbar6", "jsq", 1339, 33, 0x2b059e493820232cULL},
    {"crossbar6", "min-delay", 1339, 33, 0x2b059e493820232cULL},
    {"crossbar6", "direct-only", 1339, 33, 0x2b059e493820232cULL},
    {"two_tier8x2", "alg", 4346.8333333333339, 72, 0x60663b809d9a9907ULL},
    {"two_tier8x2", "maxweight", 6321.6666666666661, 92, 0x6c011c3729d76c2eULL},
    {"two_tier8x2", "islip", 9736.3333333333339, 93, 0x4d6eff3c969ecb13ULL},
    {"two_tier8x2", "rotor", 115884.99999999999, 985, 0xcdd9dc546acded1eULL},
    {"two_tier8x2", "random", 8254.6666666666679, 92, 0x5d85f5f54c479275ULL},
    {"two_tier8x2", "fifo", 9751, 92, 0x803d06a7363a5022ULL},
    {"two_tier8x2", "impact", 4346.8333333333339, 72, 0x60663b809d9a9907ULL},
    {"two_tier8x2", "random-dispatch", 7039.5, 110, 0xf8db88a254fffdebULL},
    {"two_tier8x2", "round-robin", 6159.6666666666661, 92, 0xb39744b330e2c42cULL},
    {"two_tier8x2", "jsq", 6416.8333333333339, 92, 0xa587a15dede17af3ULL},
    {"two_tier8x2", "min-delay", 8148.1666666666661, 115, 0x1154a25965cb5ea4ULL},
    {"two_tier8x2", "direct-only", 15613.500000000002, 178, 0xbddbcb4d04e6d1d7ULL},
    {"hybrid6x2", "alg", 2962, 37, 0x3da31161e8671838ULL},
    {"hybrid6x2", "maxweight", 8911.5, 80, 0x13b58b99163f6605ULL},
    {"hybrid6x2", "islip", 17151, 80, 0x52ea1e04ad5f9bd9ULL},
    {"hybrid6x2", "rotor", 54588, 229, 0xef809f2bb66013ccULL},
    {"hybrid6x2", "random", 15378, 80, 0xbabd8155e172753bULL},
    {"hybrid6x2", "fifo", 17132.5, 80, 0xc365ec5f0dac759fULL},
    {"hybrid6x2", "impact", 2962, 37, 0x3da31161e8671838ULL},
    {"hybrid6x2", "random-dispatch", 9569.5, 84, 0xfbd4dacb22a993deULL},
    {"hybrid6x2", "round-robin", 8911.5, 84, 0xaf9ba44c89992b83ULL},
    {"hybrid6x2", "jsq", 8911.5, 80, 0x13b58b99163f6605ULL},
    {"hybrid6x2", "min-delay", 12363.5, 116, 0xa455878950165301ULL},
    {"hybrid6x2", "direct-only", 3948, 34, 0x0a48d037b4d131e8ULL},
    {"expander10d3", "alg", 3747, 36, 0xcf1a9024e33c165eULL},
    {"expander10d3", "maxweight", 3750, 36, 0x5f8e46eb15384d5bULL},
    {"expander10d3", "islip", 3752, 36, 0xf716a01d864f4b98ULL},
    {"expander10d3", "rotor", 3956, 36, 0x8f9901048d544d2dULL},
    {"expander10d3", "random", 3751, 36, 0x57fa3246c4a1489bULL},
    {"expander10d3", "fifo", 3752, 36, 0xf716a01d864f4b98ULL},
    {"expander10d3", "impact", 3747, 36, 0xcf1a9024e33c165eULL},
    {"expander10d3", "random-dispatch", 3749, 36, 0xfe63af9467f26337ULL},
    {"expander10d3", "round-robin", 3751, 36, 0x5418dbe8cfb8a562ULL},
    {"expander10d3", "jsq", 3750, 36, 0x5f8e46eb15384d5bULL},
    {"expander10d3", "min-delay", 3747, 36, 0xcf1a9024e33c165eULL},
    {"expander10d3", "direct-only", 5264, 36, 0x849b5a6b01f7e0c4ULL},
};

TEST(ImpactIndexGoldens, AllRegistryPoliciesUnchanged) {
  const std::vector<ZooCase> cases = zoo_cases();
  const std::vector<std::string> names = policy_names();
  ASSERT_EQ(names.size(), 12u);
  std::size_t row = 0;
  for (const ZooCase& shape : cases) {
    const Instance instance = zoo_instance(shape);
    for (const std::string& name : names) {
      ASSERT_LT(row, std::size(kZooGoldens));
      const ZooGolden& want = kZooGoldens[row++];
      ASSERT_STREQ(want.shape, shape.name);
      ASSERT_STREQ(want.policy, name.c_str());
      const PolicyFactory policy = named_policy(name);
      auto dispatcher = policy.dispatcher();
      auto scheduler = policy.scheduler(instance.topology());
      const RunResult run = simulate(instance, *dispatcher, *scheduler, {});
      EXPECT_NEAR(run.total_cost, want.cost, 1e-9 * (1.0 + want.cost))
          << shape.name << "/" << name;
      EXPECT_EQ(run.makespan, want.makespan) << shape.name << "/" << name;
      EXPECT_EQ(schedule_hash(run.outcomes), want.hash) << shape.name << "/" << name;
    }
  }
  EXPECT_EQ(row, std::size(kZooGoldens));
}

}  // namespace
}  // namespace rdcn

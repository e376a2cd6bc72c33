// The incremental impact index (sim/impact_index.hpp), pinned at three
// levels:
//
//  1. unit: ImpactAggregate against hand-built multisets, including the
//     canonical-shape guarantee -- any insertion/removal history of the
//     same multiset yields BIT-identical counts and weight sums;
//  2. differential: check_impact_index replays ALG over the topology zoo
//     and the random instance family, cross-validating the live index
//     against the naive scan and a fresh canonical rebuild at every
//     candidate edge of every dispatch;
//  3. golden: schedule hashes of all 12 registry policies over four zoo
//     shapes, captured from pre-index main -- the index refactor changed
//     no schedule anywhere.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/differential.hpp"
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
  // JSQ reads only the O(1) counters; the weight treaps must stay off for
  // the entire run (no rebuilds, no deferred events, no decay churn).
  const Instance instance = testing::make_varied_instance(105);
  const PolicyFactory policy = named_policy("jsq");
  auto dispatcher = policy.dispatcher();
  auto scheduler = policy.scheduler(instance.topology());
  Engine engine(instance, *dispatcher, *scheduler, {});
  ASSERT_FALSE(engine.impact_index().weight_ready());
  engine.run();
  EXPECT_FALSE(engine.impact_index().weight_ready());
  EXPECT_EQ(engine.impact_index().deferred_events(), 0u);
  EXPECT_EQ(engine.impact_index().live_weight_nodes(), 0u);
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

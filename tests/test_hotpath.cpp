// Hot-path contracts of the scheduling round loop (ISSUE 5):
//  * steady-state rounds perform ZERO heap allocations, for every registry
//    scheduler and both randomized schedulers -- the Selection API hands
//    policies an engine-owned output scratch, and every policy keeps its
//    working buffers as grow-once members;
//  * Engine::active_endpoints builds a correct dense remap for both the
//    engine's own pending list and foreign candidate lists, including the
//    stale-rank ("sparse set") reuse across alternating lists.
//
// The binary overrides global operator new/delete with a counting
// passthrough; the drain phase of a streaming engine (no arrivals, pure
// scheduling rounds + retirement) must not bump the counter after a short
// warmup that grows the scratch buffers to their high-water sizes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "baseline/dispatchers.hpp"
#include "baseline/schedulers.hpp"
#include "core/alg.hpp"
#include "core/randomized.hpp"
#include "helpers.hpp"
#include "net/builders.hpp"
#include "run/policies.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
}

void* operator new(std::size_t size) {
  ++g_allocation_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The deletes stay out of line: inlined into a new-expression's cleanup
// (gtest's `new TestClass`), a delete's free() meets the pointer the
// replaced operator new returned, and GCC 12 reports that pairing as
// -Wmismatched-new-delete although malloc/free do match.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rdcn {
namespace {

/// A contended multi-chunk workload on a two-tier pod: every packet is
/// injected at step 1, so the drain that follows is a pure scheduling-round
/// loop (no dispatches) lasting tens of steps.
Topology hotpath_topology(std::uint64_t seed, Delay max_edge_delay = 3) {
  TwoTierConfig net;
  net.racks = 6;
  net.lasers_per_rack = 2;
  net.photodetectors_per_rack = 2;
  net.density = 0.7;
  net.max_edge_delay = max_edge_delay;
  Rng rng(seed);
  return build_two_tier(net, rng);
}

/// Weights from [0.5, 8) by default, whose chunk weights put the impact
/// index on its treaps; `integer_weights` draws 1-10, which over delays
/// 1-2 keep it on its exact count lines (sim/impact_index.hpp).
std::vector<Packet> burst_packets(const Topology& topology, std::size_t count,
                                  std::uint64_t seed, bool integer_weights = false) {
  Rng rng(seed);
  std::vector<Packet> packets;
  packets.reserve(count);
  while (packets.size() < count) {
    Packet p;
    p.id = static_cast<PacketIndex>(packets.size());
    p.arrival = 1;
    p.weight = integer_weights ? static_cast<double>(rng.next_int(1, 10))
                               : rng.next_double(0.5, 8.0);
    p.source = static_cast<NodeIndex>(rng.next_below(
        static_cast<std::uint64_t>(topology.num_sources())));
    p.destination = static_cast<NodeIndex>(rng.next_below(
        static_cast<std::uint64_t>(topology.num_destinations())));
    if (!topology.routable(p.source, p.destination)) continue;
    packets.push_back(p);
  }
  return packets;
}

/// Injects the burst, runs `warmup` drain steps (scratch buffers grow to
/// their high-water sizes here), then counts allocations over the rest of
/// the drain. Returns (drain steps measured, allocations seen).
std::pair<int, std::uint64_t> measure_drain_allocations(DispatchPolicy& dispatcher,
                                                        SchedulePolicy& scheduler,
                                                        const Topology& topology,
                                                        int warmup,
                                                        EngineOptions options = {}) {
  Engine engine(topology, dispatcher, scheduler, options, [](RetiredPacket&&) {});
  const std::vector<Packet> packets = burst_packets(topology, 160, 11);
  const Time arrival = 1;
  engine.begin_step(&arrival);
  for (const Packet& p : packets) engine.inject(p);
  engine.finish_step();
  for (int i = 0; i < warmup && engine.busy(); ++i) {
    engine.begin_step(nullptr);
    engine.finish_step();
  }
  const std::uint64_t before = g_allocation_count.load();
  int steps = 0;
  while (engine.busy()) {
    engine.begin_step(nullptr);
    engine.finish_step();
    ++steps;
  }
  return {steps, g_allocation_count.load() - before};
}

TEST(HotPathAllocations, RegistrySchedulersDrainWithoutAllocating) {
  const Topology topology = hotpath_topology(3);
  for (const std::string& name : policy_names()) {
    const PolicyFactory policy = named_policy(name);
    auto dispatcher = policy.dispatcher();
    auto scheduler = policy.scheduler(topology);
    const auto [steps, allocations] =
        measure_drain_allocations(*dispatcher, *scheduler, topology, 3);
    EXPECT_GT(steps, 5) << name << ": drain too short to be meaningful";
    EXPECT_EQ(allocations, 0u) << name << ": steady-state rounds hit the heap";
  }
}

TEST(HotPathAllocations, ProbeOnDrainRemainsAllocationFree) {
  // ISSUE 7: the observability layer's per-round work is fixed-slot
  // counters, a fixed-depth span stack, and a pre-sized ring with
  // drop-oldest overwrite -- enabling it must not change the zero-heap
  // contract. Capacity 64 forces ring wraparound inside the measured
  // window, so the drop-oldest path itself is pinned allocation-free too.
  const Topology topology = hotpath_topology(3);
  const PolicyFactory policy = named_policy("alg");
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{64}}) {
    auto dispatcher = policy.dispatcher();
    auto scheduler = policy.scheduler(topology);
    EngineOptions options;
    options.probe.enabled = true;
    options.probe.event_capacity = capacity;
    const auto [steps, allocations] =
        measure_drain_allocations(*dispatcher, *scheduler, topology, 3, options);
    EXPECT_GT(steps, 5);
    EXPECT_EQ(allocations, 0u)
        << "probe-on drain hit the heap (ring capacity " << capacity << ")";
  }
}

TEST(HotPathAllocations, BMatchingExtensionDrainsWithoutAllocating) {
  // endpoint_capacity > 1 exercises StableMatchingScheduler's stamped
  // in-place capacitated greedy (the b-matching extension path).
  const Topology topology = hotpath_topology(3);
  const PolicyFactory policy = named_policy("alg");
  auto dispatcher = policy.dispatcher();
  auto scheduler = policy.scheduler(topology);
  EngineOptions options;
  options.endpoint_capacity = 2;
  const auto [steps, allocations] =
      measure_drain_allocations(*dispatcher, *scheduler, topology, 3, options);
  EXPECT_GT(steps, 5);
  EXPECT_EQ(allocations, 0u) << "b-matching path hit the heap";
}

TEST(HotPathAllocations, RandomizedSchedulersDrainWithoutAllocating) {
  const Topology topology = hotpath_topology(3);
  {
    PerturbedStableScheduler scheduler(0.3, 7);
    auto dispatcher = named_policy("alg").dispatcher();
    const auto [steps, allocations] =
        measure_drain_allocations(*dispatcher, scheduler, topology, 3);
    EXPECT_GT(steps, 5);
    EXPECT_EQ(allocations, 0u) << "PerturbedStableScheduler";
  }
  {
    RandomMaximalScheduler scheduler(7);
    auto dispatcher = named_policy("alg").dispatcher();
    const auto [steps, allocations] =
        measure_drain_allocations(*dispatcher, scheduler, topology, 3);
    EXPECT_GT(steps, 5);
    EXPECT_EQ(allocations, 0u) << "RandomMaximalScheduler";
  }
}

/// A packet that starves behind heavier ones must not make the engine grow
/// per-packet state with every packet served after it: once the first 1000
/// steps have sized the scratch and the record pool, the rest of the
/// 5000-step stream and its drain -- a dispatch, a round and a retirement
/// per step -- allocate nothing.
TEST(HotPathAllocations, StarvedPacketStreamAllocatesNothingAfterWarmup) {
  const Topology topology = testing::delay_crossbar(1);
  ImpactDispatcher dispatcher;
  StableMatchingScheduler scheduler;
  Engine engine(topology, dispatcher, scheduler, {}, [](RetiredPacket&&) {});
  std::uint64_t before = 0;
  testing::run_starved_stream(engine, 1, 5000, [&](const Engine& e) {
    if (e.now() == 1000) before = g_allocation_count.load();
  });
  ASSERT_NE(before, 0u) << "the warm-up never reached step 1000";
  EXPECT_EQ(g_allocation_count.load() - before, 0u)
      << "the starvation stream hit the heap after warm-up";
  EXPECT_EQ(engine.packets_retired(), 5001u);
}

/// While an edge is dead, dispatchers read E_p from the engine's filtered
/// scratch, which grows once: a stream that keeps dispatching after a stage
/// boundary killed an edge allocates nothing once the first 1000 steps
/// have sized the scratch, the record pool and the index. Returns whether
/// the index ended on its exact count lines.
bool expect_dead_edge_stream_allocates_nothing(const Topology& topology,
                                               bool integer_weights) {
  const std::vector<Packet> shapes = burst_packets(topology, 64, 23, integer_weights);
  // The first edge of a pair that keeps another: its packets still route,
  // over the survivor, through the filtered view.
  EdgeIndex victim = kInvalidEdge;
  for (const Packet& p : shapes) {
    const std::span<const EdgeIndex> edges = topology.pair_edges(p.source, p.destination);
    if (edges.size() >= 2) {
      victim = edges.front();
      break;
    }
  }
  EXPECT_NE(victim, kInvalidEdge);
  if (victim == kInvalidEdge) return false;
  ImpactDispatcher dispatcher;
  StableMatchingScheduler scheduler;
  Engine engine(topology, dispatcher, scheduler, {}, [](RetiredPacket&&) {});
  StageMutation kill;
  kill.kill_edges = {victim};
  PacketIndex id = 0;
  std::uint64_t before = 0;
  std::uint64_t dispatched_before = 0;
  for (Time next = 1; next <= 3000; ++next) {
    if (next == 100) engine.apply_mutation(kill);
    if (next == 1000) {
      before = g_allocation_count.load();
      dispatched_before = engine.packets_dispatched();
    }
    engine.begin_step(&next);
    const Packet& p = shapes[static_cast<std::size_t>(next) % shapes.size()];
    engine.inject(Packet{id++, engine.now(), p.weight, p.source, p.destination});
    engine.finish_step();
  }
  EXPECT_EQ(g_allocation_count.load() - before, 0u)
      << "dispatching with a dead edge hit the heap after warm-up";
  EXPECT_EQ(engine.packets_dispatched() - dispatched_before, 2001u);
  EXPECT_FALSE(engine.edge_alive(victim));
  return engine.impact_index().exact();
}

TEST(HotPathAllocations, DeadEdgeStreamDispatchesWithoutAllocating) {
  EXPECT_FALSE(expect_dead_edge_stream_allocates_nothing(hotpath_topology(3), false))
      << "continuous weights should exercise the treaps";
}

TEST(HotPathAllocations, IntegerWeightDeadEdgeStreamDispatchesWithoutAllocating) {
  EXPECT_TRUE(expect_dead_edge_stream_allocates_nothing(hotpath_topology(3, 2), true))
      << "integer weights over delays 1-2 left the exact count lines";
}

// ----------------------------------------------------- dispatch phase --

/// The dispatch phase itself -- impact_of through the incremental index,
/// JSQ through the integer counters -- must be allocation-free at steady
/// state. dispatch() is a pure reader, so after a warmup that grows the
/// index's pools (treap nodes or count lines) to their high-water sizes,
/// probing decisions against a live engine (with drain steps
/// interleaved, whose service updates the live index) must not touch the
/// heap. Returns whether the index ended on its exact
/// count lines.
bool expect_dispatch_decisions_allocate_nothing(const Topology& topology,
                                                bool integer_weights) {
  ImpactDispatcher impact;
  JsqDispatcher jsq;
  StableMatchingScheduler scheduler;
  Engine engine(topology, impact, scheduler, {}, [](RetiredPacket&&) {});

  const std::vector<Packet> packets = burst_packets(topology, 160, 11, integer_weights);
  const Time arrival = 1;
  engine.begin_step(&arrival);
  for (const Packet& p : packets) engine.inject(p);
  engine.finish_step();

  // Probe packets only feed (weight, source, destination) to dispatch().
  const std::vector<Packet> probes = burst_packets(topology, 32, 23, integer_weights);

  // Warmup: grow the index pool to its high-water size (every probe once),
  // with drain rounds whose service updates the index, as the measured
  // steps' does.
  for (int i = 0; i < 2; ++i) {
    for (const Packet& p : probes) {
      impact.dispatch(engine, p);
      jsq.dispatch(engine, p);
    }
    engine.begin_step(nullptr);
    engine.finish_step();
  }

  const std::uint64_t before = g_allocation_count.load();
  std::uint64_t decisions = 0;
  for (int step = 0; step < 6 && engine.busy(); ++step) {
    engine.begin_step(nullptr);
    engine.finish_step();
    for (const Packet& p : probes) {
      const RouteDecision a = impact.dispatch(engine, p);
      const RouteDecision b = jsq.dispatch(engine, p);
      decisions += 2;
      EXPECT_TRUE(a.use_fixed || a.edge >= 0);
      EXPECT_TRUE(b.use_fixed || b.edge >= 0);
    }
  }
  EXPECT_GT(decisions, 100u) << "probe loop too short to be meaningful";
  EXPECT_EQ(g_allocation_count.load() - before, 0u)
      << "steady-state dispatch decisions hit the heap";
  return engine.impact_index().exact();
}

TEST(HotPathAllocations, DispatchDecisionsAllocateNothingAtSteadyState) {
  EXPECT_FALSE(expect_dispatch_decisions_allocate_nothing(hotpath_topology(3), false))
      << "continuous weights should exercise the treaps";
}

TEST(HotPathAllocations, IntegerWeightDispatchDecisionsAllocateNothingAtSteadyState) {
  EXPECT_TRUE(expect_dispatch_decisions_allocate_nothing(hotpath_topology(3, 2), true))
      << "integer weights over delays 1-2 left the exact count lines";
}

// ------------------------------------------------- active-endpoint remap --

Candidate candidate_on(const Topology& topology, EdgeIndex e, PacketIndex id) {
  Candidate c;
  c.packet = id;
  c.edge = e;
  c.transmitter = topology.edge(e).transmitter;
  c.receiver = topology.edge(e).receiver;
  c.chunk_weight = 1.0 + static_cast<double>(id % 5);
  c.arrival = 1;
  c.remaining = 1;
  return c;
}

/// The remap must list each endpoint exactly once, rank every candidate
/// endpoint into the list, and survive alternating rebuilds from different
/// foreign lists (the stale-rank reuse path).
TEST(ActiveEndpoints, ForeignListRebuildsSurviveStaleRanks) {
  const Topology topology = build_crossbar(6);
  ImpactDispatcher dispatcher;
  StableMatchingScheduler scheduler;
  Instance instance(topology, {});
  Engine engine(instance, dispatcher, scheduler, {});

  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Candidate> candidates;
    const std::size_t depth = 1 + rng.next_below(20);
    for (std::size_t i = 0; i < depth; ++i) {
      const auto e = static_cast<EdgeIndex>(
          rng.next_below(static_cast<std::uint64_t>(topology.num_edges())));
      candidates.push_back(candidate_on(topology, e, static_cast<PacketIndex>(i)));
    }
    const ActiveEndpoints& active = engine.active_endpoints(candidates);

    std::vector<NodeIndex> expect_t, expect_r;
    for (const Candidate& c : candidates) {
      if (std::find(expect_t.begin(), expect_t.end(), c.transmitter) == expect_t.end()) {
        expect_t.push_back(c.transmitter);
      }
      if (std::find(expect_r.begin(), expect_r.end(), c.receiver) == expect_r.end()) {
        expect_r.push_back(c.receiver);
      }
    }
    ASSERT_EQ(active.transmitters, expect_t) << "trial " << trial;
    ASSERT_EQ(active.receivers, expect_r) << "trial " << trial;
    for (const Candidate& c : candidates) {
      const auto t_rank = static_cast<std::size_t>(active.transmitter_rank(c.transmitter));
      const auto r_rank = static_cast<std::size_t>(active.receiver_rank(c.receiver));
      ASSERT_LT(t_rank, active.num_transmitters());
      ASSERT_LT(r_rank, active.num_receivers());
      EXPECT_EQ(active.transmitters[t_rank], c.transmitter);
      EXPECT_EQ(active.receivers[r_rank], c.receiver);
    }
  }
}

}  // namespace
}  // namespace rdcn

// Tests for the streaming engine mode and the run/ stream layer: the
// golden equivalence (a streamed run fed a pre-recorded arrival sequence
// reproduces the batch engine's schedule bit-for-bit while holding only
// O(in-flight) per-packet state), StreamRunner determinism and measurement
// semantics, and BatchRunner's streamed fan-out.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "helpers.hpp"
#include "net/builders.hpp"
#include "run/batch.hpp"
#include "run/policies.hpp"
#include "run/stream.hpp"
#include "workload/generator.hpp"

namespace rdcn {
namespace {

Instance golden_instance(std::size_t packets, std::uint64_t seed) {
  TwoTierConfig net;
  net.racks = 6;
  net.lasers_per_rack = 2;
  net.photodetectors_per_rack = 2;
  net.density = 0.7;
  net.max_edge_delay = 3;
  net.fixed_link_delay = 6;  // exercise the fixed-route retirement path
  Rng rng(seed);
  const Topology topology = build_two_tier(net, rng);
  WorkloadConfig workload;
  workload.num_packets = packets;
  workload.arrival_rate = 4.0;
  workload.skew = PairSkew::Zipf;
  workload.weights = WeightDist::UniformInt;
  workload.seed = seed;
  return generate_workload(topology, workload);
}

/// Streams instance.packets() through a streaming-mode engine, collecting
/// retired outcomes by id, and returns (aggregates, outcomes).
std::pair<RunResult, std::map<PacketIndex, RetiredPacket>> stream_replay(
    const Instance& instance, const PolicyFactory& policy, EngineOptions options,
    std::size_t* peak_resident = nullptr) {
  auto dispatcher = policy.dispatcher();
  auto scheduler = policy.scheduler(instance.topology());
  std::map<PacketIndex, RetiredPacket> retired;
  Engine engine(instance.topology(), *dispatcher, *scheduler, options,
                [&](RetiredPacket&& packet) {
                  const PacketIndex id = packet.id;
                  EXPECT_TRUE(retired.emplace(id, std::move(packet)).second)
                      << "packet retired twice";
                });
  const auto& packets = instance.packets();
  std::size_t next = 0;
  while (next < packets.size() || engine.busy()) {
    const Time* upcoming = next < packets.size() ? &packets[next].arrival : nullptr;
    engine.begin_step(upcoming);
    while (next < packets.size() && packets[next].arrival == engine.now()) {
      engine.inject(packets[next]);
      ++next;
    }
    engine.finish_step();
  }
  if (peak_resident != nullptr) *peak_resident = engine.peak_resident_slots();
  return {engine.aggregates(), std::move(retired)};
}

// ------------------------------------------------------------------ golden --

TEST(StreamEngine, ReproducesBatchScheduleBitForBit) {
  const Instance instance = golden_instance(300, 5);
  for (const char* name : {"alg", "maxweight", "fifo", "islip", "random"}) {
    const PolicyFactory policy = named_policy(name);
    auto dispatcher = policy.dispatcher();
    auto scheduler = policy.scheduler(instance.topology());
    const RunResult expected = simulate(instance, *dispatcher, *scheduler);

    const auto [aggregates, retired] = stream_replay(instance, policy, {});
    EXPECT_EQ(aggregates.total_cost, expected.total_cost) << name;
    EXPECT_EQ(aggregates.reconfig_cost, expected.reconfig_cost) << name;
    EXPECT_EQ(aggregates.fixed_cost, expected.fixed_cost) << name;
    EXPECT_EQ(aggregates.makespan, expected.makespan) << name;
    EXPECT_EQ(aggregates.steps_simulated, expected.steps_simulated) << name;

    ASSERT_EQ(retired.size(), instance.num_packets()) << name;
    for (std::size_t i = 0; i < instance.num_packets(); ++i) {
      const auto id = static_cast<PacketIndex>(i);
      const PacketOutcome& want = expected.outcomes[i];
      const auto it = retired.find(id);
      ASSERT_NE(it, retired.end()) << name << " packet " << i;
      const RetiredPacket& got = it->second;
      EXPECT_EQ(got.arrival, instance.packets()[i].arrival);
      EXPECT_EQ(got.weight, instance.packets()[i].weight);
      EXPECT_EQ(got.outcome.route.use_fixed, want.route.use_fixed) << name;
      EXPECT_EQ(got.outcome.route.edge, want.route.edge) << name;
      EXPECT_EQ(got.outcome.completion, want.completion) << name;
      EXPECT_EQ(got.outcome.weighted_latency, want.weighted_latency) << name;
      EXPECT_EQ(got.outcome.chunk_transmit_steps, want.chunk_transmit_steps)
          << name << " packet " << i;
    }
  }
}

TEST(StreamEngine, ReproducesBatchUnderCapacityAndSpeedup) {
  const Instance instance = golden_instance(250, 9);
  EngineOptions capacity2;
  capacity2.endpoint_capacity = 2;
  EngineOptions speedup2;
  speedup2.speedup_rounds = 2;
  for (const EngineOptions& options : {EngineOptions{}, capacity2, speedup2}) {
    const PolicyFactory policy = named_policy("alg");
    auto dispatcher = policy.dispatcher();
    auto scheduler = policy.scheduler(instance.topology());
    EngineOptions batch_options = options;
    const RunResult expected = simulate(instance, *dispatcher, *scheduler, batch_options);

    const auto [aggregates, retired] = stream_replay(instance, policy, options);
    EXPECT_EQ(aggregates.total_cost, expected.total_cost);
    EXPECT_EQ(aggregates.makespan, expected.makespan);
    EXPECT_EQ(aggregates.steps_simulated, expected.steps_simulated);
    ASSERT_EQ(retired.size(), instance.num_packets());
    for (std::size_t i = 0; i < instance.num_packets(); ++i) {
      EXPECT_EQ(retired.at(static_cast<PacketIndex>(i)).outcome.chunk_transmit_steps,
                expected.outcomes[i].chunk_transmit_steps);
    }
  }
}

TEST(StreamEngine, GoldenReplayPassesThePerStepAudit) {
  // PR-2's golden equivalence under the check/ invariant auditor: both
  // modes run with EngineOptions::audit on, every step's matching,
  // conservation and completion accounting re-derived independently, and
  // the schedules must still agree bit-for-bit.
  const Instance instance = golden_instance(300, 5);
  EngineOptions audited;
  audited.audit = true;
  for (const char* name : {"alg", "maxweight", "fifo"}) {
    const PolicyFactory policy = named_policy(name);
    auto dispatcher = policy.dispatcher();
    auto scheduler = policy.scheduler(instance.topology());
    const RunResult expected = simulate(instance, *dispatcher, *scheduler, audited);
    const auto [aggregates, retired] = stream_replay(instance, policy, audited);
    EXPECT_EQ(aggregates.total_cost, expected.total_cost) << name;
    EXPECT_EQ(aggregates.makespan, expected.makespan) << name;
    EXPECT_EQ(retired.size(), instance.num_packets()) << name;
  }
}

TEST(StreamEngine, ResidentStateIsBoundedByInFlightNotTotal) {
  // A long, lightly-loaded arrival sequence: the window must retire and
  // compact far below the total packet count.
  TwoTierConfig net;
  net.racks = 6;
  net.lasers_per_rack = 2;
  net.photodetectors_per_rack = 2;
  net.density = 0.9;
  net.max_edge_delay = 2;
  Rng rng(3);
  const Topology topology = build_two_tier(net, rng);
  WorkloadConfig workload;
  workload.num_packets = 4000;
  workload.arrival_rate = 2.0;  // well under capacity
  workload.seed = 3;
  const Instance instance = generate_workload(topology, workload);

  std::size_t peak_resident = 0;
  const auto [aggregates, retired] =
      stream_replay(instance, named_policy("alg"), {}, &peak_resident);
  ASSERT_EQ(retired.size(), instance.num_packets());
  EXPECT_GT(peak_resident, 0u);
  // O(in-flight): orders of magnitude below the 4000 packets served.
  EXPECT_LT(peak_resident, instance.num_packets() / 8);
}

TEST(StreamEngine, StreamingModeRejectsBatchOnlyFeatures) {
  const Topology topology = golden_instance(10, 1).topology();
  const PolicyFactory policy = named_policy("alg");
  auto dispatcher = policy.dispatcher();
  auto scheduler = policy.scheduler(topology);
  EngineOptions options;
  options.record_trace = true;
  EXPECT_THROW(Engine(topology, *dispatcher, *scheduler, options,
                      [](RetiredPacket&&) {}),
               std::invalid_argument);
  options = {};
  options.redispatch_queued = true;
  EXPECT_THROW(Engine(topology, *dispatcher, *scheduler, options,
                      [](RetiredPacket&&) {}),
               std::invalid_argument);
  options = {};
  EXPECT_THROW(Engine(topology, *dispatcher, *scheduler, options, nullptr),
               std::invalid_argument);
  Engine engine(topology, *dispatcher, *scheduler, options, [](RetiredPacket&&) {});
  EXPECT_THROW(engine.run(), std::logic_error);
}

// ------------------------------------------------------------ StreamRunner --

StreamSpec small_stream() {
  StreamSpec spec;
  spec.name = "small-stream";
  auto& net = spec.topology.two_tier;
  net.racks = 5;
  net.lasers_per_rack = 2;
  net.photodetectors_per_rack = 2;
  net.density = 0.8;
  net.max_edge_delay = 2;
  spec.traffic.rho = 0.6;
  spec.traffic.shape.weights = WeightDist::UniformInt;
  spec.warmup_packets = 200;
  spec.measure_packets = 1500;
  spec.telemetry_window = 64;
  return spec;
}

TEST(StreamRunner, DeterministicPerSeed) {
  const StreamRunner runner(small_stream());
  const StreamRepOutcome a = runner.run_repetition(alg_policy(), 4);
  const StreamRepOutcome b = runner.run_repetition(alg_policy(), 4);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.measured, b.measured);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_EQ(a.latency.p50(), b.latency.p50());
  EXPECT_EQ(a.latency.p999(), b.latency.p999());
  const StreamRepOutcome c = runner.run_repetition(alg_policy(), 5);
  EXPECT_NE(a.total_cost, c.total_cost);
}

TEST(StreamRunner, MeasuresExactlyTheMeasurementRange) {
  const StreamSpec spec = small_stream();
  const StreamRunner runner(spec);
  const StreamRepOutcome out = runner.run_repetition(alg_policy(), 1);
  EXPECT_FALSE(out.truncated);
  EXPECT_EQ(out.measured, spec.measure_packets);
  EXPECT_EQ(out.latency.count(), spec.measure_packets);
  EXPECT_GE(out.offered, out.served);
  EXPECT_GE(out.served, out.measured);
  EXPECT_GT(out.throughput, 0.0);
  EXPECT_GT(out.mean_latency, 0.0);
  EXPECT_GE(static_cast<double>(out.latency.p999()),
            static_cast<double>(out.latency.p50()));
  // rho targeting carries through the runner.
  EXPECT_NEAR(out.measured_rho, spec.traffic.rho, 0.15 * spec.traffic.rho);
  // Telemetry windows tile the simulated steps.
  Time covered = 0;
  for (const StreamWindow& window : out.series) covered += window.steps;
  EXPECT_EQ(covered, out.steps);
  // Bounded memory at the runner level too.
  EXPECT_LT(out.peak_resident, static_cast<std::size_t>(out.served) / 2);
}

TEST(StreamRunner, TraceReplayMatchesBatchTotals) {
  const Instance instance = golden_instance(400, 13);
  StreamSpec spec;
  spec.name = "replay";
  spec.warmup_packets = 0;
  spec.measure_packets = instance.num_packets();
  spec.make_trace = [&](std::uint64_t) { return instance; };
  const StreamRunner runner(spec);
  const StreamRepOutcome out = runner.run_repetition(named_policy("maxweight"), 1);

  const PolicyFactory policy = named_policy("maxweight");
  auto dispatcher = policy.dispatcher();
  auto scheduler = policy.scheduler(instance.topology());
  const RunResult expected = simulate(instance, *dispatcher, *scheduler);

  EXPECT_EQ(out.total_cost, expected.total_cost);
  EXPECT_EQ(out.makespan, expected.makespan);
  EXPECT_EQ(out.steps, expected.steps_simulated);
  EXPECT_EQ(out.served, instance.num_packets());
  EXPECT_EQ(out.measured, instance.num_packets());
}

TEST(StreamRunner, TruncatesAtTheStepCap) {
  StreamSpec spec = small_stream();
  spec.max_steps = 50;
  const StreamRepOutcome out = StreamRunner(spec).run_repetition(alg_policy(), 1);
  EXPECT_TRUE(out.truncated);
  EXPECT_EQ(out.steps, 50);
  EXPECT_LT(out.measured, spec.measure_packets);
}

TEST(StreamRunner, TruncatedOverloadPointIsFlaggedInAggregation) {
  // An overloaded rho point: backlog grows without bound, every
  // repetition hits the step cap, and the aggregate must say so instead
  // of folding truncated runs in silently.
  StreamSpec spec = small_stream();
  spec.traffic.rho = 2.5;
  spec.max_steps = 400;
  spec.warmup_packets = 0;
  spec.measure_packets = 100000;  // unreachable before the cap
  spec.repetitions = 2;
  const StreamResult overloaded = StreamRunner(spec).run(alg_policy());
  EXPECT_EQ(overloaded.truncated_reps, 2u);
  for (const StreamRepOutcome& rep : overloaded.repetitions) {
    EXPECT_TRUE(rep.truncated);
    EXPECT_LT(rep.measured, spec.measure_packets);
  }
  // A converged point reports zero truncated repetitions.
  const StreamResult converged = StreamRunner(small_stream()).run(alg_policy());
  EXPECT_EQ(converged.truncated_reps, 0u);
  EXPECT_FALSE(converged.repetitions.front().truncated);
}

TEST(StreamRunner, ZeroDemandPairsAreCountedNotSilentlyFolded) {
  // One pair reachable only over the fixed layer (demand 0), one with a
  // reconfigurable route: the fixed-only packets must be surfaced in
  // zero_demand rather than silently diluting measured_rho.
  Topology topology;
  const NodeIndex sources = topology.add_sources(2);
  const NodeIndex destinations = topology.add_destinations(2);
  const NodeIndex transmitter = topology.add_transmitter(sources);
  const NodeIndex receiver = topology.add_receiver(destinations);
  topology.add_edge(transmitter, receiver, 2);
  topology.add_fixed_link(sources + 1, destinations + 1, 3);  // fixed-only pair
  Instance instance(std::move(topology), {});
  instance.add_packet(1, 1.0, sources, destinations);
  instance.add_packet(1, 1.0, sources + 1, destinations + 1);
  instance.add_packet(2, 2.0, sources + 1, destinations + 1);

  StreamSpec spec;
  spec.name = "zero-demand";
  spec.warmup_packets = 0;
  spec.measure_packets = instance.num_packets();
  spec.make_trace = [&](std::uint64_t) { return instance; };
  const StreamRepOutcome out = StreamRunner(spec).run_repetition(alg_policy(), 1);
  EXPECT_EQ(out.offered, 3u);
  EXPECT_EQ(out.zero_demand, 2u);
  EXPECT_GT(out.measured_rho, 0.0);  // from the one reconfigurable packet
}

TEST(StreamRunner, RejectsInvalidSpecs) {
  StreamSpec spec = small_stream();
  spec.repetitions = 0;
  EXPECT_THROW(StreamRunner{spec}, std::invalid_argument);
  spec = small_stream();
  spec.measure_packets = 0;
  EXPECT_THROW(StreamRunner{spec}, std::invalid_argument);
  spec = small_stream();
  spec.engine.record_trace = true;
  EXPECT_THROW(StreamRunner{spec}, std::invalid_argument);
  spec = small_stream();
  spec.engine.max_steps = 100;  // the spec-level cap is the supported knob
  EXPECT_THROW(StreamRunner{spec}, std::invalid_argument);
}

TEST(StreamRunner, RunMergesRepetitions) {
  StreamSpec spec = small_stream();
  spec.repetitions = 3;
  spec.measure_packets = 600;
  const StreamResult result = StreamRunner(spec).run(alg_policy());
  ASSERT_EQ(result.repetitions.size(), 3u);
  EXPECT_EQ(result.latency.count(), 3u * 600u);
  std::uint64_t total = 0;
  for (const StreamRepOutcome& rep : result.repetitions) total += rep.latency.count();
  EXPECT_EQ(result.latency.count(), total);
  EXPECT_EQ(result.throughput.count(), 3u);
}

// ----------------------------------------------------- staged mutations --

/// Two disjoint reconfigurable routes for the pair (0, 0): a cheap edge a
/// min-delay dispatcher always prefers and an expensive fallback that only
/// matters once the cheap one is killed.
Topology two_route_topology() {
  Topology g;
  g.add_sources(1);
  g.add_destinations(1);
  const NodeIndex t1 = g.add_transmitter(0);
  const NodeIndex t2 = g.add_transmitter(0);
  const NodeIndex r1 = g.add_receiver(0);
  const NodeIndex r2 = g.add_receiver(0);
  g.add_edge(t1, r1, 2);  // edge 0: preferred
  g.add_edge(t2, r2, 6);  // edge 1: fallback
  return g;
}

TEST(StageMutations, RequeueRedispatchesUntouchedPacketsOntoSurvivors) {
  const Topology topology = two_route_topology();
  const PolicyFactory policy = named_policy("min-delay");
  auto dispatcher = policy.dispatcher();
  auto scheduler = policy.scheduler(topology);
  EngineOptions options;
  options.audit = true;
  std::uint64_t served = 0;
  std::uint64_t dropped = 0;
  Engine engine(topology, *dispatcher, *scheduler, options,
                [&](RetiredPacket&& packet) {
                  if (packet.outcome.dropped) {
                    ++dropped;
                  } else {
                    ++served;
                    EXPECT_EQ(packet.outcome.route.edge, 1) << "must finish on the fallback";
                  }
                });
  // Both packets land on edge 0 (min delay); one step transmits a single
  // chunk of the front packet, leaving the second untouched.
  Packet p0{0, 1, 1.0, 0, 0};
  Packet p1{1, 1, 1.0, 0, 0};
  const Time first = 1;
  engine.begin_step(&first);
  engine.inject(p0);
  engine.inject(p1);
  engine.finish_step();

  StageMutation mutation;
  mutation.kill_edges = {0};
  mutation.dead_policy = DeadPolicy::Requeue;
  const MutationStats stats = engine.apply_mutation(mutation);
  EXPECT_EQ(stats.edges_killed, 1u);
  // The packet with a transmitted chunk can never be requeued (partial
  // work is unrecoverable); the untouched one re-routes onto edge 1.
  EXPECT_EQ(stats.packets_dropped, 1u);
  EXPECT_EQ(stats.packets_requeued, 1u);
  EXPECT_EQ(engine.packets_dropped(), 1u);
  EXPECT_EQ(engine.packets_requeued(), 1u);

  while (engine.busy()) {
    engine.begin_step(nullptr);
    engine.finish_step();
  }
  EXPECT_EQ(served, 1u);
  EXPECT_EQ(dropped, 1u);
}

TEST(StageMutations, DropPolicyStrandsEveryPacketOnTheDeadEdge) {
  const Topology topology = two_route_topology();
  const PolicyFactory policy = named_policy("min-delay");
  auto dispatcher = policy.dispatcher();
  auto scheduler = policy.scheduler(topology);
  EngineOptions options;
  options.audit = true;
  std::uint64_t dropped = 0;
  Engine engine(topology, *dispatcher, *scheduler, options,
                [&](RetiredPacket&& packet) { dropped += packet.outcome.dropped ? 1 : 0; });
  Packet p0{0, 1, 1.0, 0, 0};
  Packet p1{1, 1, 1.0, 0, 0};
  const Time first = 1;
  engine.begin_step(&first);
  engine.inject(p0);
  engine.inject(p1);
  engine.finish_step();

  StageMutation mutation;
  mutation.kill_edges = {0};
  mutation.dead_policy = DeadPolicy::Drop;
  const MutationStats stats = engine.apply_mutation(mutation);
  EXPECT_EQ(stats.packets_dropped, 2u);
  EXPECT_EQ(stats.packets_requeued, 0u);
  EXPECT_EQ(dropped, 2u);
  EXPECT_FALSE(engine.busy());

  // Restoring revives the edge for later arrivals.
  StageMutation restore;
  restore.restore_edges = {0};
  EXPECT_EQ(engine.apply_mutation(restore).edges_restored, 1u);
  EXPECT_TRUE(engine.edge_alive(0));
}

TEST(StageMutations, ValidatesBoundariesAndArguments) {
  const Topology topology = two_route_topology();
  const PolicyFactory policy = named_policy("min-delay");
  auto dispatcher = policy.dispatcher();
  auto scheduler = policy.scheduler(topology);
  EngineOptions options;
  options.audit = true;
  std::uint64_t served = 0;
  std::uint64_t dropped = 0;
  Engine engine(topology, *dispatcher, *scheduler, options, [&](RetiredPacket&& packet) {
    ++(packet.outcome.dropped ? dropped : served);
  });

  StageMutation bad_edge;
  bad_edge.kill_edges = {99};
  EXPECT_THROW(engine.apply_mutation(bad_edge), std::invalid_argument);

  // One packet on edge 0 (two chunks): the first transmits at step 1.
  StageMutation kill;
  kill.kill_edges = {0};
  const Time first = 1;
  engine.begin_step(&first);
  engine.inject(Packet{0, 1, 1.0, 0, 0});
  EXPECT_THROW(engine.apply_mutation(kill), std::logic_error);  // mid-step
  engine.finish_step();

  // A rejected mutation is atomic: the parts named before the bad
  // argument are not applied either.
  const auto expect_unchanged = [&](const char* label) {
    EXPECT_EQ(engine.dead_edge_count(), 0u) << label;
    EXPECT_TRUE(engine.edge_alive(0)) << label;
    EXPECT_TRUE(engine.edge_alive(1)) << label;
    EXPECT_EQ(engine.options().speedup_rounds, 1) << label;
    ASSERT_EQ(engine.pending_count(), 1u) << label;
    std::vector<Candidate> on_edge_0;
    engine.for_each_pending_on(0, [&](const Candidate& c) { on_edge_0.push_back(c); });
    ASSERT_EQ(on_edge_0.size(), 1u) << label;
    EXPECT_EQ(on_edge_0[0].remaining, 1) << label;
    EXPECT_EQ(engine.packets_dropped(), 0u) << label;
  };
  StageMutation bad_second_edge;
  bad_second_edge.kill_edges = {0, 99};
  EXPECT_THROW(engine.apply_mutation(bad_second_edge), std::invalid_argument);
  expect_unchanged("kill_edges {0, 99}");
  StageMutation bad_scalar;
  bad_scalar.kill_edges = {1};
  bad_scalar.speedup_rounds = -1;
  EXPECT_THROW(engine.apply_mutation(bad_scalar), std::invalid_argument);
  expect_unchanged("kill_edges {1}, speedup_rounds -1");

  // The packet finishes on its (still alive) edge; killing it afterwards
  // strands nothing.
  engine.begin_step(nullptr);
  engine.finish_step();
  EXPECT_FALSE(engine.busy());
  EXPECT_EQ(served, 1u);
  EXPECT_EQ(dropped, 0u);
  const MutationStats stats = engine.apply_mutation(kill);
  EXPECT_EQ(stats.edges_killed, 1u);
  EXPECT_EQ(stats.packets_dropped, 0u);
}

// ----------------------------------------------------- staged StreamRunner --

TEST(StreamRunner, OverrideFreeSingleStageMatchesUnstaged) {
  // A one-stage schedule with no overrides and no mutation must be
  // bit-for-bit the classic run: same arrivals, same schedule, same stats.
  const StreamSpec plain = small_stream();
  StreamSpec staged = plain;
  staged.stages.emplace_back();  // duration 0 = to end, all inherit
  const StreamRepOutcome a = StreamRunner(plain).run_repetition(alg_policy(), 4);
  const StreamRepOutcome b = StreamRunner(staged).run_repetition(alg_policy(), 4);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.measured, b.measured);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_EQ(a.latency.p50(), b.latency.p50());
  ASSERT_EQ(b.stages.size(), 1u);
  EXPECT_EQ(b.stages[0].start, 1);
  EXPECT_EQ(b.stages[0].offered, b.offered);
  EXPECT_EQ(b.stages[0].entry_backlog, 0u);
  EXPECT_EQ(b.stages[0].drain_steps, 0);
}

StreamSpec failure_recovery_stream() {
  StreamSpec spec = small_stream();
  spec.engine.audit = true;  // zero-tolerance invariant audit across stage edges
  StageSpec healthy;
  healthy.duration = 60;
  StageSpec degraded;
  degraded.duration = 60;
  degraded.mutation.kill_edges = {0, 1};
  degraded.mutation.dead_policy = DeadPolicy::Requeue;
  degraded.rho = 0.4;
  StageSpec recovered;  // duration 0 = to end of run
  recovered.mutation.restore_edges = {0, 1};
  spec.stages = {healthy, degraded, recovered};
  return spec;
}

TEST(StreamRunner, StagedFailureAndRecoveryRunsUnderAudit) {
  const StreamRunner runner(failure_recovery_stream());
  const StreamRepOutcome out = runner.run_repetition(alg_policy(), 3);
  ASSERT_EQ(out.stages.size(), 3u);
  ASSERT_GT(out.steps, 121) << "run must outlive the whole schedule";
  EXPECT_FALSE(out.truncated);
  EXPECT_EQ(out.stages[0].start, 1);
  EXPECT_EQ(out.stages[1].start, 61);
  EXPECT_EQ(out.stages[2].start, 121);
  EXPECT_EQ(out.stages[1].edges_killed, 2u);
  EXPECT_EQ(out.stages[2].edges_restored, 2u);
  EXPECT_GT(out.stages[1].entry_backlog, 0u);

  // Every packet is attributed to exactly one stage.
  std::uint64_t offered = 0;
  std::uint64_t served = 0;
  std::uint64_t dropped = 0;
  Time steps = 0;
  for (const StageOutcome& stage : out.stages) {
    offered += stage.offered;
    served += stage.served;
    dropped += stage.dropped;
    steps += stage.steps;
  }
  EXPECT_EQ(offered, out.offered);
  EXPECT_EQ(served, out.served);
  EXPECT_EQ(dropped, out.dropped);
  EXPECT_EQ(steps, out.steps);
  // Every measured id retired or dropped exactly once.
  EXPECT_EQ(out.measured + out.dropped_measured, runner.spec().measure_packets);
}

TEST(StreamRunner, StagedRunsAreDeterministicPerSeed) {
  const StreamRunner runner(failure_recovery_stream());
  const StreamRepOutcome a = runner.run_repetition(alg_policy(), 7);
  const StreamRepOutcome b = runner.run_repetition(alg_policy(), 7);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.requeued, b.requeued);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t k = 0; k < a.stages.size(); ++k) {
    EXPECT_EQ(a.stages[k].offered, b.stages[k].offered) << "stage " << k;
    EXPECT_EQ(a.stages[k].served, b.stages[k].served) << "stage " << k;
    EXPECT_EQ(a.stages[k].dropped, b.stages[k].dropped) << "stage " << k;
    EXPECT_EQ(a.stages[k].drain_steps, b.stages[k].drain_steps) << "stage " << k;
  }
}

/// failure_recovery_stream on a hybrid pod whose stages also rescale the
/// engine, like tests/suites/all_keys_stream.json: two rounds per step at
/// capacity 2, then three rounds at capacity 1 while a rack is down
/// (requeues reach the fixed layer), then one round at capacity 2.
StreamSpec rescaling_stream() {
  StreamSpec spec = failure_recovery_stream();
  spec.topology.two_tier.fixed_link_delay = 9;
  spec.engine.speedup_rounds = 2;
  spec.engine.endpoint_capacity = 2;
  spec.stages[1].mutation.kill_racks = {1};
  spec.stages[1].mutation.speedup_rounds = 3;
  spec.stages[1].mutation.endpoint_capacity = 1;
  spec.stages[2].mutation.speedup_rounds = 1;
  spec.stages[2].mutation.endpoint_capacity = 2;
  spec.stages[2].rho = 0.7;
  return spec;
}

struct StageGolden {
  Time start;
  std::uint64_t offered, served, dropped, requeued;
  std::size_t entry_backlog;
  Time drain_steps;
  double target_rate;
};

struct StagedStreamGolden {
  bool rescaling;  ///< rescaling_stream(), else failure_recovery_stream()
  const char* policy;
  std::uint64_t seed;
  std::uint64_t offered, served, dropped, requeued;
  Time steps;
  bool truncated;
  double total_cost;
  double target_rate;
  StageGolden stages[3];
};

// StreamRunner's staged output, captured before its drive loop moved into
// the shared stage clock (sim/drive.hpp).
constexpr StagedStreamGolden kStagedStreamGoldens[] = {
    {false, "alg", 3ULL, 1883, 1856, 15, 0, 364, false, 19823, 5.1990691770679076,
     {{1, 334, 324, 0, 0, 0, 0, 5.1990691770679076},
      {61, 203, 197, 15, 0, 9, 2, 3.4660461180452717},
      {121, 1346, 1335, 0, 0, 1, 1, 5.2389682370496695}}},
    {false, "alg", 8ULL, 1769, 1764, 0, 0, 416, false, 19235, 4.5159867695700111,
     {{1, 285, 273, 0, 0, 0, 0, 4.5159867695700111},
      {61, 179, 189, 0, 0, 12, 3, 2.9547339945897204},
      {121, 1305, 1302, 0, 0, 2, 1, 4.4137931034482758}}},
    {false, "jsq", 3ULL, 19030, 16839, 18, 0, 3639, true, 2013185, 5.1990691770679076,
     {{1, 334, 283, 0, 0, 0, 0, 5.1990691770679076},
      {61, 203, 234, 18, 0, 47, 9, 3.4660461180452717},
      {121, 18493, 16322, 0, 0, 2, 1, 5.2389682370496695}}},
    {false, "jsq", 8ULL, 1860, 1847, 0, 0, 439, false, 31639, 4.5159867695700111,
     {{1, 285, 263, 0, 0, 0, 0, 4.5159867695700111},
      {61, 179, 199, 0, 0, 22, 7, 2.9547339945897204},
      {121, 1396, 1385, 0, 0, 2, 1, 4.4137931034482758}}},
    {false, "fifo", 3ULL, 1866, 1739, 15, 0, 361, false, 109190.5, 5.1990691770679076,
     {{1, 334, 291, 0, 0, 0, 0, 5.1990691770679076},
      {61, 203, 229, 15, 0, 42, 9, 3.4660461180452717},
      {121, 1329, 1219, 0, 0, 2, 1, 5.2389682370496695}}},
    {false, "fifo", 8ULL, 1721, 1712, 0, 0, 404, false, 46612, 4.5159867695700111,
     {{1, 285, 265, 0, 0, 0, 0, 4.5159867695700111},
      {61, 179, 197, 0, 0, 20, 6, 2.9547339945897204},
      {121, 1257, 1250, 0, 0, 2, 1, 4.4137931034482758}}},
    {false, "maxweight", 3ULL, 5883, 5586, 17, 0, 1118, false, 198208, 5.1990691770679076,
     {{1, 334, 282, 0, 0, 0, 0, 5.1990691770679076},
      {61, 203, 236, 17, 0, 49, 10, 3.4660461180452717},
      {121, 5346, 5068, 0, 0, 2, 1, 5.2389682370496695}}},
    {false, "maxweight", 8ULL, 1843, 1835, 0, 0, 435, false, 30696.5, 4.5159867695700111,
     {{1, 285, 269, 0, 0, 0, 0, 4.5159867695700111},
      {61, 179, 193, 0, 0, 16, 5, 2.9547339945897204},
      {121, 1379, 1373, 0, 0, 2, 1, 4.4137931034482758}}},
    {true, "alg", 3ULL, 1714, 1710, 0, 0, 193, false, 27998.5, 10.398138354135815,
     {{1, 648, 648, 0, 0, 0, 0, 10.398138354135815},
      {61, 604, 604, 0, 0, 0, 0, 10.398138354135815},
      {121, 462, 458, 0, 0, 0, 0, 6.112129609891281}}},
    {true, "alg", 8ULL, 1706, 1703, 0, 0, 233, false, 28973.5, 9.0319735391400222,
     {{1, 567, 566, 0, 0, 0, 0, 9.0319735391400222},
      {61, 553, 554, 0, 0, 1, 1, 8.8642019837691617},
      {121, 586, 583, 0, 0, 0, 0, 5.1494252873563218}}},
    {true, "jsq", 3ULL, 1727, 1721, 0, 0, 195, false, 29313.5, 10.398138354135815,
     {{1, 648, 647, 0, 0, 0, 0, 10.398138354135815},
      {61, 604, 605, 0, 0, 1, 1, 10.398138354135815},
      {121, 475, 469, 0, 0, 0, 0, 6.112129609891281}}},
    {true, "jsq", 8ULL, 1706, 1702, 0, 0, 233, false, 29553, 9.0319735391400222,
     {{1, 567, 566, 0, 0, 0, 0, 9.0319735391400222},
      {61, 553, 554, 0, 0, 1, 1, 8.8642019837691617},
      {121, 586, 582, 0, 0, 0, 0, 5.1494252873563218}}},
    {true, "fifo", 3ULL, 1798, 1767, 2, 30, 207, false, 57719, 10.398138354135815,
     {{1, 648, 564, 0, 0, 0, 0, 10.398138354135815},
      {61, 604, 686, 2, 30, 52, 4, 10.398138354135815},
      {121, 546, 517, 0, 0, 0, 0, 6.112129609891281}}},
    {true, "fifo", 8ULL, 1710, 1701, 4, 7, 234, false, 40200, 9.0319735391400222,
     {{1, 567, 543, 0, 0, 0, 0, 9.0319735391400222},
      {61, 553, 573, 4, 7, 13, 2, 8.8642019837691617},
      {121, 590, 585, 0, 0, 0, 0, 5.1494252873563218}}},
    {true, "maxweight", 3ULL, 2991, 2911, 5, 19, 396, false, 77334.5, 10.398138354135815,
     {{1, 648, 595, 0, 0, 0, 0, 10.398138354135815},
      {61, 604, 652, 5, 19, 29, 2, 10.398138354135815},
      {121, 1739, 1664, 0, 0, 0, 0, 6.112129609891281}}},
    {true, "maxweight", 8ULL, 1717, 1709, 2, 7, 236, false, 33627.5, 9.0319735391400222,
     {{1, 567, 542, 0, 0, 0, 0, 9.0319735391400222},
      {61, 553, 576, 2, 7, 16, 2, 8.8642019837691617},
      {121, 597, 591, 0, 0, 0, 0, 5.1494252873563218}}},
};

TEST(StreamRunner, StagedRunsMatchGoldens) {
  const StreamRunner recovery(failure_recovery_stream());
  const StreamRunner rescaling(rescaling_stream());
  for (const StagedStreamGolden& golden : kStagedStreamGoldens) {
    const StreamRunner& runner = golden.rescaling ? rescaling : recovery;
    const PolicyFactory policy = named_policy(golden.policy);
    const StreamRepOutcome out = runner.run_repetition(policy, golden.seed);
    const std::string label = std::string(golden.rescaling ? "rescaling " : "recovery ") +
                              golden.policy + " seed " + std::to_string(golden.seed);
    EXPECT_EQ(out.offered, golden.offered) << label;
    EXPECT_EQ(out.served, golden.served) << label;
    EXPECT_EQ(out.dropped, golden.dropped) << label;
    EXPECT_EQ(out.requeued, golden.requeued) << label;
    EXPECT_EQ(out.steps, golden.steps) << label;
    EXPECT_EQ(out.truncated, golden.truncated) << label;
    EXPECT_EQ(out.total_cost, golden.total_cost) << label;
    EXPECT_EQ(out.target_rate, golden.target_rate) << label;
    ASSERT_EQ(out.stages.size(), 3u) << label;
    for (std::size_t k = 0; k < 3; ++k) {
      const StageOutcome& stage = out.stages[k];
      const StageGolden& want = golden.stages[k];
      const std::string where = label + " stage " + std::to_string(k);
      EXPECT_EQ(stage.start, want.start) << where;
      EXPECT_EQ(stage.offered, want.offered) << where;
      EXPECT_EQ(stage.served, want.served) << where;
      EXPECT_EQ(stage.dropped, want.dropped) << where;
      EXPECT_EQ(stage.requeued, want.requeued) << where;
      EXPECT_EQ(stage.entry_backlog, want.entry_backlog) << where;
      EXPECT_EQ(stage.drain_steps, want.drain_steps) << where;
      EXPECT_EQ(stage.target_rate, want.target_rate) << where;
    }
  }
}

// ------------------------------------------------------------ stage clock --
//
// The clock rule every staged drive follows: a mutation at T governs every
// step with now() >= T, so it is applied before step T begins, and an idle
// jump never carries the clock past T - 1. A recording dispatcher sees
// which edges the engine reports alive at every injection; each injection
// at now() >= T must see the state after every mutation at or before T,
// and each earlier one the state before it.

/// What the dispatcher saw at one injection.
struct AliveRecord {
  Time now = 0;
  Time arrival = 0;
  std::vector<char> alive;  ///< Engine::edge_alive per edge
};

class AliveRecordingDispatcher final : public DispatchPolicy {
 public:
  AliveRecordingDispatcher(std::unique_ptr<DispatchPolicy> inner,
                           std::vector<AliveRecord>& log)
      : inner_(std::move(inner)), log_(&log) {}

  RouteDecision dispatch(const Engine& engine, const Packet& packet) override {
    AliveRecord record{engine.now(), packet.arrival, {}};
    for (EdgeIndex e = 0; e < engine.topology().num_edges(); ++e) {
      record.alive.push_back(engine.edge_alive(e) ? 1 : 0);
    }
    log_->push_back(std::move(record));
    return inner_->dispatch(engine, packet);
  }

 private:
  std::unique_ptr<DispatchPolicy> inner_;
  std::vector<AliveRecord>* log_;
};

/// ALG with its dispatcher wrapped in an AliveRecordingDispatcher.
PolicyFactory alive_recording_policy(std::vector<AliveRecord>& log) {
  PolicyFactory policy = alg_policy();
  policy.dispatcher = [make = policy.dispatcher, &log] {
    return std::make_unique<AliveRecordingDispatcher>(make(), log);
  };
  return policy;
}

/// Edge liveness at clock t: every mutation with at <= t applied in order
/// (restores before kills within one mutation, as Engine::apply_mutation).
std::vector<char> alive_at(std::size_t num_edges,
                           const std::vector<TimedMutation>& schedule, Time t) {
  std::vector<char> alive(num_edges, 1);
  for (const TimedMutation& entry : schedule) {
    if (entry.at > t) break;
    for (EdgeIndex e : entry.mutation.restore_edges) {
      alive[static_cast<std::size_t>(e)] = 1;
    }
    for (EdgeIndex e : entry.mutation.kill_edges) alive[static_cast<std::size_t>(e)] = 0;
  }
  return alive;
}

/// Checks every record against the schedule, and that every mutation after
/// the first step has injections on both sides of its edge (so the check
/// is not vacuous).
void expect_clock_rule(const std::vector<AliveRecord>& log, std::size_t num_edges,
                       const std::vector<TimedMutation>& schedule,
                       const std::string& label) {
  ASSERT_FALSE(log.empty()) << label;
  for (const AliveRecord& record : log) {
    EXPECT_EQ(record.arrival, record.now) << label;
    EXPECT_EQ(record.alive, alive_at(num_edges, schedule, record.now))
        << label << ": injection at step " << record.now;
  }
  for (const TimedMutation& entry : schedule) {
    if (entry.at <= 1) continue;
    const auto before = std::count_if(log.begin(), log.end(), [&](const AliveRecord& r) {
      return r.now < entry.at;
    });
    EXPECT_GT(before, 0) << label << ": no injection before T = " << entry.at;
    EXPECT_LT(static_cast<std::size_t>(before), log.size())
        << label << ": no injection at or after T = " << entry.at;
  }
}

/// Kills and restores edges. Stranded packets drop: a requeue would
/// re-dispatch them, and every dispatch the recorder sees must be an
/// injection.
StageMutation edge_mutation(std::vector<EdgeIndex> kill, std::vector<EdgeIndex> restore) {
  StageMutation mutation;
  mutation.kill_edges = std::move(kill);
  mutation.restore_edges = std::move(restore);
  mutation.dead_policy = DeadPolicy::Drop;
  return mutation;
}

TimedMutation timed(Time at, std::vector<EdgeIndex> kill,
                    std::vector<EdgeIndex> restore) {
  return {at, edge_mutation(std::move(kill), std::move(restore))};
}

/// The sparse trace of SlowTraceDrainsToCompletionDespiteZeroTargetRate:
/// about 20 idle steps between arrivals.
Instance sparse_instance() {
  TwoTierConfig net;
  net.racks = 4;
  net.lasers_per_rack = 2;
  net.photodetectors_per_rack = 2;
  net.density = 0.9;
  net.max_edge_delay = 2;
  Rng rng(11);
  const Topology topology = build_two_tier(net, rng);
  WorkloadConfig workload;
  workload.num_packets = 60;
  workload.arrival_rate = 0.05;
  workload.seed = 11;
  return generate_workload(topology, workload);
}

TEST(StageClock, BatchRunAppliesEachMutationBeforeItsStep) {
  const Instance instance = sparse_instance();
  const auto& packets = instance.packets();
  const auto num_edges = static_cast<std::size_t>(instance.topology().num_edges());
  ASSERT_GE(num_edges, 3u);
  // Distinct arrival times with at least two idle steps after them: a
  // mutation strictly inside such a gap is only reached through the clamp.
  std::vector<std::pair<Time, Time>> gaps;  // (arrival, next arrival)
  for (std::size_t i = 1; i < packets.size(); ++i) {
    if (packets[i].arrival - packets[i - 1].arrival >= 3) {
      gaps.emplace_back(packets[i - 1].arrival, packets[i].arrival);
    }
  }
  ASSERT_GE(gaps.size(), 4u);
  const auto check = [&](const char* label, const std::vector<TimedMutation>& schedule) {
    std::vector<AliveRecord> log;
    const PolicyFactory policy = alive_recording_policy(log);
    auto dispatcher = policy.dispatcher();
    auto scheduler = policy.scheduler(instance.topology());
    EngineOptions options;
    options.audit = true;
    Engine engine(instance, *dispatcher, *scheduler, options);
    engine.run(schedule);
    expect_clock_rule(log, num_edges, schedule, label);
  };
  const Time gap0 = (gaps[0].first + gaps[0].second) / 2;
  const Time gap1 = (gaps[1].first + gaps[1].second) / 2;
  const Time gap2 = (gaps[2].first + gaps[2].second) / 2;
  // A kill before the first step, a restore exactly at an arrival.
  check("at T = 1", {timed(1, {0, 1}, {}), timed(gaps[1].second, {}, {0, 1})});
  // Both strictly inside idle gaps.
  check("in idle gaps", {timed(gap0, {0, 1}, {}), timed(gap2, {}, {0, 1})});
  // Two mutations at one T apply in order; the last restore lands one
  // step after an arrival.
  std::vector<TimedMutation> same_t = {timed(gap1, {0, 1}, {}), timed(gap1, {2}, {0})};
  same_t.push_back(timed(gaps[3].first + 1, {}, {1, 2}));
  check("two at one T", same_t);
}

TEST(StageClock, StagedStreamAppliesEachStageBeforeItsStep) {
  // The same rule through StreamRunner: a sparse generative stream whose
  // stage edges fall between arrivals.
  StreamSpec spec;
  spec.name = "sparse-staged";
  auto& net = spec.topology.two_tier;
  net.racks = 4;
  net.lasers_per_rack = 2;
  net.photodetectors_per_rack = 2;
  net.density = 0.9;
  net.max_edge_delay = 2;
  spec.traffic.rho = 0.01;
  spec.warmup_packets = 0;
  spec.measure_packets = 60;
  spec.engine.audit = true;
  spec.stages.resize(3);
  spec.stages[0].duration = 300;
  spec.stages[0].mutation = edge_mutation({0, 1}, {});
  spec.stages[1].duration = 300;
  spec.stages[1].mutation = edge_mutation({2}, {0});
  spec.stages[2].mutation = edge_mutation({}, {1, 2});
  const StreamRunner runner(spec);
  std::vector<TimedMutation> schedule;
  const std::vector<Time> starts = stage_starts(spec.stages);
  for (std::size_t k = 0; k < spec.stages.size(); ++k) {
    schedule.push_back({starts[k], spec.stages[k].mutation});
  }
  for (const std::uint64_t seed : {1ULL, 2ULL}) {
    std::vector<AliveRecord> log;
    const StreamRepOutcome out = runner.run_repetition(alive_recording_policy(log), seed);
    EXPECT_FALSE(out.truncated);
    const auto num_edges = static_cast<std::size_t>(
        make_topology(spec.topology, seed).num_edges());
    expect_clock_rule(log, num_edges, schedule, "seed " + std::to_string(seed));
  }
}

TEST(StreamRunner, StagedSpecsRejectIllFormedSchedules) {
  StreamSpec spec = small_stream();
  spec.stages.emplace_back();
  spec.stages.emplace_back();  // duration 0 before the last stage
  EXPECT_THROW(StreamRunner{spec}, std::invalid_argument);
  spec = small_stream();
  spec.stages.emplace_back();
  spec.stages.back().rho = 0.0;
  EXPECT_THROW(StreamRunner{spec}, std::invalid_argument);
  spec = small_stream();
  spec.stages.emplace_back();
  spec.stages.back().on_stay = 1.5;
  EXPECT_THROW(StreamRunner{spec}, std::invalid_argument);
  spec = small_stream();
  spec.make_trace = [](std::uint64_t) { return golden_instance(10, 1); };
  spec.stages.emplace_back();
  EXPECT_THROW(StreamRunner{spec}, std::invalid_argument);  // stages need generative traffic
}

// -------------------------------------------------------------- satellites --

TEST(StreamRunner, SlowTraceDrainsToCompletionDespiteZeroTargetRate) {
  // The trace path keeps target_rate == 0 by design: the derived step cap
  // (a division by the calibrated rate) must never be taken there, or a
  // sparse trace would truncate instead of draining.
  TwoTierConfig net;
  net.racks = 4;
  net.lasers_per_rack = 2;
  net.photodetectors_per_rack = 2;
  net.density = 0.9;
  net.max_edge_delay = 2;
  Rng rng(11);
  const Topology topology = build_two_tier(net, rng);
  WorkloadConfig workload;
  workload.num_packets = 60;
  workload.arrival_rate = 0.05;  // ~20 idle steps between arrivals
  workload.seed = 11;
  Instance instance = generate_workload(topology, workload);

  StreamSpec spec;
  spec.name = "sparse-replay";
  spec.warmup_packets = 0;
  spec.measure_packets = instance.num_packets();
  spec.make_trace = [&](std::uint64_t) { return instance; };
  const StreamRepOutcome out = StreamRunner(spec).run_repetition(alg_policy(), 1);
  EXPECT_DOUBLE_EQ(out.target_rate, 0.0);
  EXPECT_FALSE(out.truncated);
  EXPECT_EQ(out.served, instance.num_packets());
  EXPECT_EQ(out.measured, instance.num_packets());
}

TEST(StreamRunner, AggregationKeepsTruncatedLatencyApart) {
  // A truncated repetition's histogram is a censored sample (only the
  // survivors that retired before the cap); it must merge into
  // latency_truncated, never into the converged summary.
  StreamSpec spec = small_stream();
  spec.repetitions = 2;
  const StreamRunner runner(spec);
  StreamRepOutcome converged;
  converged.seed = 1;
  converged.latency.add(10);
  converged.latency.add(20);
  StreamRepOutcome truncated;
  truncated.seed = 2;
  truncated.truncated = true;
  truncated.latency.add(3);
  truncated.dropped = 4;
  truncated.requeued = 1;
  std::vector<StreamRepOutcome> outcomes;
  outcomes.push_back(std::move(converged));
  outcomes.push_back(std::move(truncated));
  const StreamResult result = runner.aggregate(alg_policy(), std::move(outcomes));
  EXPECT_EQ(result.truncated_reps, 1u);
  EXPECT_EQ(result.latency.count(), 2u);
  EXPECT_EQ(result.latency.max(), 20);
  EXPECT_EQ(result.latency_truncated.count(), 1u);
  EXPECT_EQ(result.latency_truncated.max(), 3);
  EXPECT_EQ(result.dropped, 4u);
  EXPECT_EQ(result.requeued, 1u);
}

// ------------------------------------------------------------- BatchRunner --

TEST(BatchRunner, StreamCellsMatchSequentialRuns) {
  StreamSpec spec = small_stream();
  spec.repetitions = 2;
  spec.measure_packets = 500;
  const auto policies = std::vector<PolicyFactory>{alg_policy(), named_policy("fifo")};

  BatchRunner batch(2);
  batch.add_stream_grid(spec, policies);
  EXPECT_EQ(batch.stream_cells(), 2u);
  const auto results = batch.run_streams();
  EXPECT_EQ(batch.stream_cells(), 0u);
  ASSERT_EQ(results.size(), 2u);

  const StreamRunner runner(spec);
  for (std::size_t p = 0; p < policies.size(); ++p) {
    EXPECT_EQ(results[p].policy, policies[p].name);
    const StreamResult sequential = runner.run(policies[p]);
    ASSERT_EQ(results[p].repetitions.size(), sequential.repetitions.size());
    for (std::size_t i = 0; i < sequential.repetitions.size(); ++i) {
      EXPECT_EQ(results[p].repetitions[i].seed, sequential.repetitions[i].seed);
      EXPECT_EQ(results[p].repetitions[i].total_cost,
                sequential.repetitions[i].total_cost);
      EXPECT_EQ(results[p].repetitions[i].latency.p99(),
                sequential.repetitions[i].latency.p99());
    }
    EXPECT_EQ(results[p].latency.count(), sequential.latency.count());
  }
}

}  // namespace
}  // namespace rdcn

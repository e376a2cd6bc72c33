// EXP-P1 -- engineering scalability of the algorithm itself
// (google-benchmark): per-step stable-matching cost, dispatch cost as a
// function of queue depth, end-to-end simulation throughput vs network
// size, and the LP/brute-force reference costs on small inputs.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "baseline/schedulers.hpp"
#include "common.hpp"
#include "core/alg.hpp"
#include "core/dual_witness.hpp"
#include "lp/paper_lps.hpp"
#include "lp/simplex.hpp"
#include "opt/brute_force.hpp"
#include "util/rng.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::bench;

ScenarioRunner scaled_runner(NodeIndex racks, std::size_t packets) {
  // Bespoke instance hook reproducing the historical generation exactly,
  // so throughput numbers stay comparable with earlier commits' runs.
  ScenarioSpec spec;
  spec.name = "scalability";
  spec.base_seed = 5;
  spec.make_instance = [racks, packets](std::uint64_t seed) {
    Rng rng(seed);
    TwoTierConfig net;
    net.racks = racks;
    net.lasers_per_rack = 2;
    net.photodetectors_per_rack = 2;
    net.density = 0.4;
    net.max_edge_delay = 2;
    const Topology topology = build_two_tier(net, rng);
    WorkloadConfig traffic;
    traffic.num_packets = packets;
    traffic.arrival_rate = static_cast<double>(racks) / 2.0;
    traffic.skew = PairSkew::Zipf;
    traffic.weights = WeightDist::UniformInt;
    traffic.seed = seed;
    return generate_workload(topology, traffic);
  };
  return ScenarioRunner(std::move(spec));
}

Instance scaled_instance(NodeIndex racks, std::size_t packets, std::uint64_t seed = 5) {
  return scaled_runner(racks, packets).instance(seed);
}

void BM_AlgEndToEnd(benchmark::State& state) {
  const auto racks = static_cast<NodeIndex>(state.range(0));
  const auto packets = static_cast<std::size_t>(state.range(1));
  const ScenarioRunner runner = scaled_runner(racks, packets);
  const Instance instance = runner.instance(5);
  const PolicyFactory policy = alg_policy();
  EngineOptions options = runner.spec().engine;
  for (auto _ : state) {
    auto dispatcher = policy.dispatcher();
    auto scheduler = policy.scheduler(instance.topology());
    benchmark::DoNotOptimize(
        simulate(instance, *dispatcher, *scheduler, options).total_cost);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(packets));
}
BENCHMARK(BM_AlgEndToEnd)
    ->Args({8, 200})
    ->Args({16, 500})
    ->Args({32, 1000})
    ->Args({64, 2000})
    ->Unit(benchmark::kMillisecond);

/// Random candidates at a given depth, pre-sorted by chunk priority (the
/// engine's SchedulePolicy contract).
std::vector<Candidate> step_candidates(const Topology& topology, std::size_t depth) {
  Rng rng(9);
  std::vector<Candidate> candidates;
  for (std::size_t i = 0; i < depth; ++i) {
    Candidate c;
    c.packet = static_cast<PacketIndex>(i);
    c.edge = static_cast<EdgeIndex>(
        rng.next_below(static_cast<std::uint64_t>(topology.num_edges())));
    c.transmitter = topology.edge(c.edge).transmitter;
    c.receiver = topology.edge(c.edge).receiver;
    c.chunk_weight = rng.next_double(0.1, 10.0);
    c.arrival = 1;
    c.remaining = 1;
    candidates.push_back(c);
  }
  std::sort(candidates.begin(), candidates.end(), chunk_higher_priority);
  return candidates;
}

void BM_StableMatchingStep(benchmark::State& state) {
  // Isolated per-step cost at a given pending-queue depth.
  const auto depth = static_cast<std::size_t>(state.range(0));
  const Topology topology = build_crossbar(32);
  const std::vector<Candidate> candidates = step_candidates(topology, depth);
  Instance instance(topology, {});
  ImpactDispatcher dispatcher;
  StableMatchingScheduler scheduler;
  Engine engine(instance, dispatcher, scheduler, {});
  Selection selection;
  for (auto _ : state) {
    selection.clear();
    scheduler.select(engine, 1, candidates, selection);
    benchmark::DoNotOptimize(selection.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(depth));
}
BENCHMARK(BM_StableMatchingStep)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_MaxWeightStep(benchmark::State& state) {
  // The Hungarian baseline's per-step cost, for contrast with greedy.
  const auto depth = static_cast<std::size_t>(state.range(0));
  const Topology topology = build_crossbar(32);
  const std::vector<Candidate> candidates = step_candidates(topology, depth);
  Instance instance(topology, {});
  ImpactDispatcher dispatcher;
  MaxWeightScheduler scheduler;
  Engine engine(instance, dispatcher, scheduler, {});
  Selection selection;
  for (auto _ : state) {
    selection.clear();
    scheduler.select(engine, 1, candidates, selection);
    benchmark::DoNotOptimize(selection.size());
  }
}
BENCHMARK(BM_MaxWeightStep)->Arg(16)->Arg(64)->Arg(256);

void BM_PrimalLpSolve(benchmark::State& state) {
  const auto packets = static_cast<std::size_t>(state.range(0));
  const Instance instance = scaled_instance(3, packets, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp_opt_lower_bound(instance, 1.0));
  }
}
BENCHMARK(BM_PrimalLpSolve)->Arg(3)->Arg(5)->Arg(7)->Unit(benchmark::kMillisecond);

void BM_BruteForceOpt(benchmark::State& state) {
  const auto packets = static_cast<std::size_t>(state.range(0));
  const Instance instance = scaled_instance(3, packets, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(brute_force_opt(instance));
  }
}
BENCHMARK(BM_BruteForceOpt)->Arg(4)->Arg(6)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_DualWitnessBuild(benchmark::State& state) {
  const auto packets = static_cast<std::size_t>(state.range(0));
  ScenarioRunner runner = scaled_runner(16, packets);
  const Instance instance = runner.instance(5);
  const RunResult run = run_alg(instance);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_dual_witness(instance, run).sum_alpha);
  }
}
BENCHMARK(BM_DualWitnessBuild)->Arg(200)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

#include "workloads.hpp"

#include <stdexcept>

namespace perfbench {

namespace {

/// bench_steady_state's pod: 8 racks, 2 lasers and 2 photodetectors each,
/// density 0.8, edge delays 1-2, uniform pairs, weights uniform in 1..10,
/// Poisson arrivals, and its truncating step cap (2x the expected span).
rdcn::StreamSpec steady_state_pod() {
  rdcn::StreamSpec spec;
  auto& net = spec.topology.two_tier;
  net.racks = 8;
  net.lasers_per_rack = 2;
  net.photodetectors_per_rack = 2;
  net.density = 0.8;
  net.max_edge_delay = 2;
  spec.traffic.process = rdcn::ArrivalProcess::Poisson;
  spec.traffic.rho = 0.8;
  spec.traffic.shape.skew = rdcn::PairSkew::Uniform;
  spec.traffic.shape.weights = rdcn::WeightDist::UniformInt;
  spec.traffic.shape.weight_max = 10;
  spec.topology.fixed_wiring = true;
  spec.telemetry_window = 512;
  spec.step_cap_factor = 2.0;
  return spec;
}

Workload shallow_batch() {
  // The BM_AlgEndToEnd/64/2000 family: 64-rack two-tier pod, 2x2 ports,
  // density 0.4, delays 1-2, Zipf pairs, uniform-int weights, 2000 packets
  // at 32 per step. Queues stay shallow; dispatch, per-round constants and
  // instance generation dominate.
  Workload w;
  w.name = "shallow_batch";
  w.mode = Mode::Batch;
  auto& net = w.scenario.topology.two_tier;
  net.racks = 64;
  net.lasers_per_rack = 2;
  net.photodetectors_per_rack = 2;
  net.density = 0.4;
  net.max_edge_delay = 2;
  w.scenario.workload.num_packets = 2000;
  w.scenario.workload.arrival_rate = 32.0;
  w.scenario.workload.skew = rdcn::PairSkew::Zipf;
  w.scenario.workload.weights = rdcn::WeightDist::UniformInt;
  w.policies = {"alg"};
  w.seeds_per_policy = 100;
  return w;
}

Workload congested_alg() {
  // Past ALG's knee at rho = 0.8 the backlog grows until the step cap
  // truncates the run, so the engine's O(P) merge/compaction and
  // stable-matching select dominate. Many short repetitions rather than one
  // long one: the latency tail of a single run varies widely with its seed.
  Workload w;
  w.name = "congested_alg";
  w.mode = Mode::Stream;
  w.stream = steady_state_pod();
  w.stream.warmup_packets = 5000;
  w.stream.measure_packets = 25000;
  w.policies = {"alg"};
  w.seeds_per_policy = 40;
  return w;
}

Workload congested_baselines() {
  // Same pod and rho under MaxWeight, then FIFO (both JSQ dispatch): the
  // only workload that runs baseline/ and match/ (Hungarian).
  Workload w;
  w.name = "congested_baselines";
  w.mode = Mode::Stream;
  w.stream = steady_state_pod();
  w.stream.warmup_packets = 2500;
  w.stream.measure_packets = 10000;
  w.policies = {"maxweight", "fifo"};
  w.seeds_per_policy = 6;
  return w;
}

Workload staged_failures() {
  // The same pod made hybrid (a fixed direct layer catches requeued
  // packets) under rolling rack failures: every stage kills one rack with
  // dead: requeue and restores the previous one. The only workload that
  // runs apply_mutation and per-stage re-calibration.
  Workload w;
  w.name = "staged_failures";
  w.mode = Mode::Stream;
  w.stream = steady_state_pod();
  w.stream.topology.two_tier.fixed_link_delay = 6;
  w.stream.warmup_packets = 10000;
  w.stream.measure_packets = 100000;
  constexpr int kStages = 160;
  constexpr rdcn::Time kStageSteps = 100;
  const rdcn::NodeIndex racks = w.stream.topology.two_tier.racks;
  for (int k = 0; k < kStages; ++k) {
    rdcn::StageSpec stage;
    stage.duration = k + 1 == kStages ? 0 : kStageSteps;
    stage.mutation.dead_policy = rdcn::DeadPolicy::Requeue;
    stage.mutation.kill_racks = {static_cast<rdcn::NodeIndex>(k % racks)};
    if (k > 0) stage.mutation.restore_racks = {static_cast<rdcn::NodeIndex>((k - 1) % racks)};
    w.stream.stages.push_back(stage);
  }
  w.policies = {"alg"};
  w.seeds_per_policy = 2;
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"shallow_batch", "congested_alg",
                                                 "congested_baselines", "staged_failures"};
  return names;
}

Workload make_workload(const std::string& name) {
  if (name == "shallow_batch") return shallow_batch();
  if (name == "congested_alg") return congested_alg();
  if (name == "congested_baselines") return congested_baselines();
  if (name == "staged_failures") return staged_failures();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<Unit> make_units(const Workload& workload, std::uint64_t seed) {
  // Unit seeds of different run seeds never overlap for run seeds below
  // 2^64 / 1000 (wrapping arithmetic keeps larger seeds deterministic).
  const std::uint64_t base = 1 + seed * 1000;
  std::vector<Unit> units;
  for (const std::string& policy : workload.policies) {
    for (std::size_t k = 0; k < workload.seeds_per_policy; ++k) {
      units.push_back({policy, base + k});
    }
  }
  return units;
}

Workload short_variant(const Workload& workload) {
  Workload w = workload;
  w.seeds_per_policy = 1;
  if (w.mode == Mode::Batch) {
    w.scenario.workload.num_packets = 500;
  } else {
    w.stream.warmup_packets = 500;
    w.stream.measure_packets = 2500;
    for (rdcn::StageSpec& stage : w.stream.stages) {
      if (stage.duration > 0) stage.duration = 30;
    }
  }
  return w;
}

}  // namespace perfbench

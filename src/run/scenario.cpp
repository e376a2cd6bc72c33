#include "run/scenario.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"

namespace rdcn {

namespace {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix-style finalizer; keeps distinct (seed, salt) pairs from
  // colliding even when callers use small consecutive integers.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Topology make_topology(const TopologySpec& spec, std::uint64_t rep_seed) {
  Rng rng(spec.fixed_wiring ? mix_seed(1, spec.seed_salt)
                            : mix_seed(rep_seed, spec.seed_salt));
  switch (spec.kind) {
    case TopologySpec::Kind::Crossbar:
      return build_crossbar(spec.crossbar_ports);
    case TopologySpec::Kind::TwoTier:
      return build_two_tier(spec.two_tier, rng);
    case TopologySpec::Kind::Oversubscribed:
      return build_oversubscribed(spec.oversubscribed, rng);
    case TopologySpec::Kind::Expander:
      return build_expander(spec.expander, rng);
    case TopologySpec::Kind::Rotor:
      return build_rotor(spec.rotor);
  }
  throw std::logic_error("unknown TopologySpec kind");
}

const char* to_string(TopologySpec::Kind kind) {
  return name_of(kTopologyKindNames, kind);
}

ScenarioRunner::ScenarioRunner(ScenarioSpec spec) : spec_(std::move(spec)) {
  if (spec_.repetitions == 0) throw std::invalid_argument("scenario needs >= 1 repetition");
}

Instance ScenarioRunner::instance(std::uint64_t rep_seed) const {
  if (spec_.make_instance) return spec_.make_instance(rep_seed);
  const Topology topology = make_topology(spec_.topology, rep_seed);
  WorkloadConfig workload = spec_.workload;
  workload.seed = rep_seed;
  return generate_workload(topology, workload);
}

RunResult ScenarioRunner::run_once(const PolicyFactory& policy,
                                   std::uint64_t rep_seed) const {
  return run_once(policy, instance(rep_seed));
}

RunResult ScenarioRunner::run_once(const PolicyFactory& policy,
                                   const Instance& instance) const {
  auto dispatcher = policy.dispatcher();
  auto scheduler = policy.scheduler(instance.topology());
  return simulate(instance, *dispatcher, *scheduler, spec_.engine);
}

std::vector<std::uint64_t> repetition_seeds(std::uint64_t base_seed,
                                            std::size_t repetitions) {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(repetitions);
  for (std::size_t i = 0; i < repetitions; ++i) {
    seeds.push_back(base_seed + static_cast<std::uint64_t>(i));
  }
  return seeds;
}

RepetitionOutcome ScenarioRunner::run_repetition(const PolicyFactory& policy,
                                                 std::uint64_t rep_seed,
                                                 const RepMetric& metric,
                                                 const CancelToken* cancel) const {
  const Instance inst = instance(rep_seed);
  auto dispatcher = policy.dispatcher();
  auto scheduler = policy.scheduler(inst.topology());
  EngineOptions engine_options = spec_.engine;
  engine_options.cancel = cancel;

  const auto start = std::chrono::steady_clock::now();
  const RunResult run = simulate(inst, *dispatcher, *scheduler, engine_options);
  const auto stop = std::chrono::steady_clock::now();

  RepetitionOutcome outcome;
  outcome.seed = rep_seed;
  outcome.total_cost = run.total_cost;
  outcome.reconfig_cost = run.reconfig_cost;
  outcome.fixed_cost = run.fixed_cost;
  outcome.makespan = run.makespan;
  outcome.steps_simulated = run.steps_simulated;
  outcome.wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();
  outcome.metric = metric ? metric(inst, run) : run.total_cost;
  outcome.probe = run.probe;
  return outcome;
}

ScenarioResult ScenarioRunner::aggregate(const PolicyFactory& policy,
                                         std::vector<RepetitionOutcome> outcomes) const {
  ScenarioResult result;
  result.scenario = spec_.name;
  result.policy = policy.name;
  result.repetitions = std::move(outcomes);
  for (const RepetitionOutcome& rep : result.repetitions) {
    result.cost.add(rep.total_cost);
    result.metric.add(rep.metric);
    result.wall_ms.add(rep.wall_ms);
    merge_report(result.probe, rep.probe);
  }
  return result;
}

ScenarioResult ScenarioRunner::run(const PolicyFactory& policy, RepMetric metric) const {
  std::vector<RepetitionOutcome> outcomes;
  for (const std::uint64_t seed : seeds()) {
    outcomes.push_back(run_repetition(policy, seed, metric));
  }
  return aggregate(policy, std::move(outcomes));
}

}  // namespace rdcn

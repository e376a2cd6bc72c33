#pragma once

// The scenario layer: one declarative description of "which network, which
// traffic, which engine options, how many repetitions" that every front
// end (bench drivers, examples, CLI, tests) feeds to a ScenarioRunner
// instead of hand-rolling instance construction. A scenario is
// deterministic given its seeds: repetition i regenerates the same
// instance bit-for-bit, so policies compared on the same spec are paired
// by construction.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/builders.hpp"
#include "net/instance.hpp"
#include "run/failure.hpp"
#include "run/policies.hpp"
#include "sim/engine.hpp"
#include "util/enum_names.hpp"
#include "util/stats.hpp"
#include "workload/generator.hpp"

namespace rdcn {

/// How to build the network for one repetition. The kind selects which of
/// the config members below is consulted (the topology zoo of
/// net/builders.hpp); all front ends -- make_topology, the run/random fuzz
/// grids, suite files and the streaming path -- draw from the same grid.
struct TopologySpec {
  enum class Kind { TwoTier, Crossbar, Oversubscribed, Expander, Rotor };
  Kind kind = Kind::TwoTier;
  TwoTierConfig two_tier{};              ///< used when kind == TwoTier
  NodeIndex crossbar_ports = 8;          ///< used when kind == Crossbar
  OversubscribedConfig oversubscribed{};  ///< used when kind == Oversubscribed
  ExpanderConfig expander{};             ///< used when kind == Expander
  RotorConfig rotor{};                   ///< used when kind == Rotor
  /// Salt mixed into the wiring Rng, so scenarios can vary the wiring
  /// independently of the workload seed.
  std::uint64_t seed_salt = 0;
  /// true: one wiring (from the salt alone) shared by all repetitions;
  /// false: every repetition rewires from (repetition seed, salt).
  /// Crossbar and Rotor wirings are deterministic, so both settings agree.
  bool fixed_wiring = false;
};

/// Registry-style names of the topology kinds; shared by suite files, CLI
/// output and test parameterization.
inline constexpr EnumName<TopologySpec::Kind> kTopologyKindNames[] = {
    {TopologySpec::Kind::TwoTier, "two_tier"},
    {TopologySpec::Kind::Crossbar, "crossbar"},
    {TopologySpec::Kind::Oversubscribed, "oversubscribed"},
    {TopologySpec::Kind::Expander, "expander"},
    {TopologySpec::Kind::Rotor, "rotor"},
};

const char* to_string(TopologySpec::Kind kind);

/// Builds the topology for one repetition of the spec.
Topology make_topology(const TopologySpec& spec, std::uint64_t rep_seed);

struct ScenarioSpec {
  std::string name;
  TopologySpec topology{};
  /// Traffic for each repetition; workload.seed is overridden with the
  /// repetition seed.
  WorkloadConfig workload{};
  EngineOptions engine{};
  /// Repetition seeds are base_seed, base_seed + 1, ...
  std::uint64_t base_seed = 1;
  std::size_t repetitions = 1;
  /// Escape hatch for bespoke instances (hand-built topologies, replayed
  /// files, flow expansions): when set, topology/workload above are
  /// ignored and this builds the instance for a repetition seed.
  std::function<Instance(std::uint64_t rep_seed)> make_instance;
};

/// One simulated repetition.
struct RepetitionOutcome {
  std::uint64_t seed = 0;
  double total_cost = 0.0;
  double reconfig_cost = 0.0;
  double fixed_cost = 0.0;
  Time makespan = 0;
  Time steps_simulated = 0;
  double wall_ms = 0.0;
  double metric = 0.0;  ///< custom metric (defaults to total_cost)
  ProbeReport probe;    ///< enabled iff the spec's engine options probe
};

/// Aggregated outcome of scenario x policy.
struct ScenarioResult {
  std::string scenario;
  std::string policy;
  std::vector<RepetitionOutcome> repetitions;
  Summary cost;     ///< total_cost across repetitions
  Summary metric;   ///< custom metric across repetitions
  Summary wall_ms;  ///< per-repetition engine wall clock
  ProbeReport probe;  ///< merged across repetitions (phase times summed)
  /// Set under FailurePolicy::Isolate when the cell failed; repetitions
  /// and the summaries above are then empty (a partial aggregate would
  /// silently misreport the cell).
  CellError error;
};

/// The repetition seeds of a ScenarioSpec or StreamSpec: base_seed,
/// base_seed + 1, ..., one per repetition.
std::vector<std::uint64_t> repetition_seeds(std::uint64_t base_seed,
                                            std::size_t repetitions);

/// Optional per-repetition metric (e.g. ratio to a bound computed from the
/// instance); default records total_cost.
using RepMetric = std::function<double(const Instance&, const RunResult&)>;

/// Executes a ScenarioSpec: owns instance construction, policy wiring,
/// repetition, and metric aggregation.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioSpec spec);

  const ScenarioSpec& spec() const noexcept { return spec_; }

  /// The instance for one repetition (deterministic in rep_seed).
  Instance instance(std::uint64_t rep_seed) const;

  /// Runs one repetition and returns the full engine result.
  RunResult run_once(const PolicyFactory& policy, std::uint64_t rep_seed) const;

  /// Same, against an instance the caller already built (avoids
  /// regenerating it when both the instance and the run are needed).
  RunResult run_once(const PolicyFactory& policy, const Instance& instance) const;

  /// Runs every repetition under the policy; standard metrics.
  ScenarioResult run(const PolicyFactory& policy) const { return run(policy, nullptr); }

  /// Runs every repetition, additionally recording metric(instance, run).
  ScenarioResult run(const PolicyFactory& policy, RepMetric metric) const;

  /// Repetition seeds of this spec, in order.
  std::vector<std::uint64_t> seeds() const {
    return repetition_seeds(spec_.base_seed, spec_.repetitions);
  }

  /// Folds repetition outcomes (in seed order) into a ScenarioResult; run()
  /// and BatchRunner's pooled fan-out both aggregate through it.
  ScenarioResult aggregate(const PolicyFactory& policy,
                           std::vector<RepetitionOutcome> outcomes) const;

 private:
  friend class BatchRunner;
  /// `cancel` (nullable) is handed to the engine, which throws
  /// CancelledError at the first step boundary after it fires -- the
  /// BatchRunner deadline path; the spec's own engine.cancel is ignored.
  RepetitionOutcome run_repetition(const PolicyFactory& policy, std::uint64_t rep_seed,
                                   const RepMetric& metric,
                                   const CancelToken* cancel = nullptr) const;

  ScenarioSpec spec_;
};

}  // namespace rdcn

#pragma once

// The streaming counterpart of the scenario layer: one declarative
// description of "which network, which open-loop traffic at which rho,
// which engine options, how long to warm up and measure" that every front
// end (the steady-state bench, rdcn_cli stream, tests) feeds to a
// StreamRunner. Like ScenarioSpec, a stream is deterministic given its
// seeds: repetition i regenerates the identical arrival sequence, so
// policies compared on the same spec see the same traffic packet for
// packet. Unlike ScenarioRunner, nothing per-packet is retained: latencies
// fold into a log-bucket histogram and throughput/backlog into fixed
// windows, so a point can serve millions of packets in bounded memory.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "run/policies.hpp"
#include "run/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "traffic/source.hpp"
#include "util/stats.hpp"

namespace rdcn {

/// One stage of a time-staged dynamic scenario (gst-mprtp's PathStage
/// pattern): traffic overrides held for `duration` steps plus an engine
/// mutation applied atomically at the stage edge. Stage k begins at clock
/// T_k = 1 + sum of the previous durations (stage 0 starts the run); its
/// mutation and traffic regime govern every step with now() >= T_k --
/// the stage clock of drive() (sim/drive.hpp), with stage entry as its
/// edge hook.
struct StageSpec {
  /// Steps this stage holds; 0 = "to end of run", legal for the last stage
  /// only. When every duration is finite and the run outlives the schedule,
  /// the final stage's regime persists.
  Time duration = 0;
  /// Traffic overrides; negative = inherit the spec-level TrafficConfig.
  /// Stage entry builds the stage's source, which calibrates the arrival
  /// rate once (against the full healthy topology: rho is nominal load,
  /// failures are headwind).
  double rho = -1.0;
  double on_stay = -1.0;
  double off_stay = -1.0;
  /// Applied at stage entry (edge/rack kills and restores, speedup or
  /// capacity scaling, drop-vs-requeue for stranded packets).
  StageMutation mutation;
};

/// Per-stage recovery metrics of one staged repetition.
struct StageOutcome {
  Time start = 0;             ///< first step clock governed by this stage
  Time steps = 0;             ///< steps the engine actually ran in-stage
  std::uint64_t offered = 0;  ///< packets injected during the stage
  std::uint64_t served = 0;   ///< packets retired (completed) during the stage
  std::uint64_t dropped = 0;  ///< failure-injection drops during the stage
  std::uint64_t requeued = 0;
  std::size_t edges_killed = 0;    ///< at the stage edge (alive -> dead)
  std::size_t edges_restored = 0;
  std::size_t entry_backlog = 0;   ///< in-flight right after the mutation
  /// Steps until the entry backlog fully departed (served + dropped since
  /// entry >= entry_backlog): the time-to-drain recovery metric. -1 when
  /// the stage (or run) ended first; 0 when the stage opened empty.
  Time drain_steps = -1;
  double target_rate = 0.0;   ///< the stage source's calibrated lambda
  LatencyHistogram latency;   ///< completions during the stage (warmup included)
};

struct StreamSpec {
  std::string name;
  TopologySpec topology{};
  TrafficConfig traffic{};
  /// redispatch_queued is unavailable to the runner; max_steps == 0 lets
  /// the runner derive a generous starvation cap.
  EngineOptions engine{};
  /// Repetition seeds are base_seed, base_seed + 1, ... (each reseeds the
  /// wiring and the traffic draws, mirroring ScenarioSpec).
  std::uint64_t base_seed = 1;
  std::size_t repetitions = 1;
  /// Packets with id < warmup_packets are excluded from the latency
  /// statistics (transient); ids [warmup, warmup + measure) are measured.
  std::size_t warmup_packets = 1000;
  std::size_t measure_packets = 10000;
  /// Steps per StreamWindow of the throughput/backlog series.
  Time telemetry_window = 256;
  /// Hard step cap; 0 derives step_cap_factor x the expected arrival span
  /// from the calibrated rate. Hitting it marks the repetition truncated
  /// (overloaded runs keep growing backlog -- and per-step cost -- so the
  /// cap is what bounds a point's wall clock; the latency histogram then
  /// covers the measured packets that did retire).
  Time max_steps = 0;
  double step_cap_factor = 8.0;
  /// Escape hatch for trace replay: when set, topology/traffic above are
  /// ignored and this supplies (topology, recorded packets) for a
  /// repetition seed; the run then drains the trace to completion
  /// (target_rate stays 0 -- the step cap comes from default_max_steps,
  /// never from a division by the calibrated rate). Incompatible with
  /// `stages` (staged replay goes through Engine::run(schedule)).
  std::function<Instance(std::uint64_t rep_seed)> make_trace;
  /// Time-staged dynamic scenario; empty = the classic single-regime run
  /// (and the stage machinery costs nothing). Staged, unstaged and trace
  /// repetitions all run through one drive() call (sim/drive.hpp); stages
  /// only add edge hooks. See StageSpec.
  std::vector<StageSpec> stages;
};

/// Stage k's first step clock T_k (1 + the durations before it), for every
/// stage of the schedule; empty for an unstaged spec.
std::vector<Time> stage_starts(const std::vector<StageSpec>& stages);

/// Stage k's traffic regime in one repetition: the spec-level traffic with
/// stage k's overrides, a per-stage seed (stage 0 keeps the repetition
/// seed, so an override-free stage 0 draws the unstaged sequence; later
/// stages fork) and the speedup in force at stage entry. StreamRunner and
/// the staged batch-vs-stream differential both derive stages from these.
TrafficConfig stage_traffic(const StreamSpec& spec, std::size_t k, std::uint64_t rep_seed,
                            int speedup_rounds);

/// One streamed repetition's folded outcome.
struct StreamRepOutcome {
  std::uint64_t seed = 0;
  std::uint64_t offered = 0;   ///< packets injected
  std::uint64_t served = 0;    ///< packets retired (fixed + reconfigurable)
  std::uint64_t measured = 0;  ///< retired packets inside the measure range
  /// Offered packets whose pair has no reconfigurable route (demand 0,
  /// fixed-layer only): they contribute nothing to measured_rho, so a
  /// large count means rho describes only part of the offered traffic
  /// (calibration rejects shapes past TrafficConfig::max_zero_demand_fraction).
  std::uint64_t zero_demand = 0;
  bool truncated = false;      ///< hit the step cap before the target
  Time steps = 0;
  Time makespan = 0;
  /// The spec-level source's calibrated lambda (packets/step); 0 for
  /// traces. Staged runs keep it as the nominal rate behind the step cap.
  double target_rate = 0.0;
  double offered_rate = 0.0;   ///< injected packets / arrival span
  double measured_rho = 0.0;   ///< offered chunk demand / (span * capacity)
  double throughput = 0.0;     ///< served packets / step
  double total_cost = 0.0;     ///< engine aggregate over the whole run
  double mean_latency = 0.0;   ///< mean over measured packets
  double mean_backlog = 0.0;
  std::uint64_t peak_backlog = 0;
  std::size_t peak_resident = 0;  ///< memory bound: peak records = queued packets
  double wall_ms = 0.0;
  std::uint64_t dropped = 0;           ///< failure-injection drops, whole run
  std::uint64_t dropped_measured = 0;  ///< drops inside the measure id range
  std::uint64_t requeued = 0;          ///< packets re-dispatched off dead edges
  LatencyHistogram latency;    ///< measured packets only (completion - arrival)
  std::vector<StreamWindow> series;
  std::vector<StageOutcome> stages;  ///< one per StageSpec; empty unstaged
  ProbeReport probe;  ///< enabled iff the spec's engine options probe
};

/// Aggregated outcome of stream x policy.
struct StreamResult {
  std::string scenario;
  std::string policy;
  std::vector<StreamRepOutcome> repetitions;
  /// Repetitions that hit the step cap before reaching their measurement
  /// target (overload). Their latencies are kept apart: `latency` merges
  /// converged repetitions only, `latency_truncated` merges the truncated
  /// ones -- a truncated rep's histogram covers just the survivors that
  /// retired before the cap (a censored sample biased low), so folding it
  /// into the converged summary would silently flatter overloaded points.
  /// Per-rep `truncated` flags are emitted in the JSON rows.
  /// throughput/backlog/rho/wall summaries still fold every repetition.
  std::size_t truncated_reps = 0;
  std::uint64_t zero_demand = 0;  ///< summed across repetitions
  std::uint64_t dropped = 0;      ///< failure-injection drops, summed
  std::uint64_t requeued = 0;     ///< summed across repetitions
  LatencyHistogram latency;            ///< merged across converged repetitions
  LatencyHistogram latency_truncated;  ///< merged across truncated repetitions
  Summary throughput;
  Summary backlog;     ///< mean_backlog across repetitions
  Summary measured_rho;
  Summary wall_ms;
  ProbeReport probe;  ///< merged across repetitions (phase times summed)
  /// Set under FailurePolicy::Isolate when the cell failed; repetitions
  /// and the aggregates above are then empty. See ScenarioResult::error.
  CellError error;
};

/// Executes a StreamSpec: topology + source construction, the open-loop
/// engine drive (drive() in sim/drive.hpp, stage entries as its edge
/// hooks), warmup cutoff, and histogram/window folding.
class StreamRunner {
 public:
  explicit StreamRunner(StreamSpec spec);

  const StreamSpec& spec() const noexcept { return spec_; }

  /// Repetition seeds of this spec, in order.
  std::vector<std::uint64_t> seeds() const {
    return repetition_seeds(spec_.base_seed, spec_.repetitions);
  }

  /// Runs one repetition (deterministic in rep_seed). `cancel` (nullable)
  /// is handed to the engine and honored at step boundaries and stage
  /// entries; the spec's own engine.cancel is ignored.
  StreamRepOutcome run_repetition(const PolicyFactory& policy, std::uint64_t rep_seed,
                                  const CancelToken* cancel = nullptr) const;

  /// Runs every repetition under the policy and merges the statistics.
  StreamResult run(const PolicyFactory& policy) const;

  /// Folds repetition outcomes (in seed order) into a StreamResult; run()
  /// and BatchRunner's pooled fan-out both aggregate through it.
  StreamResult aggregate(const PolicyFactory& policy,
                         std::vector<StreamRepOutcome> outcomes) const;

 private:
  StreamSpec spec_;
};

}  // namespace rdcn

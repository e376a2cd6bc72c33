#include "run/stream.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "sim/drive.hpp"

namespace rdcn {

StreamRunner::StreamRunner(StreamSpec spec) : spec_(std::move(spec)) {
  if (spec_.repetitions == 0) throw std::invalid_argument("stream needs >= 1 repetition");
  if (spec_.measure_packets == 0) {
    throw std::invalid_argument("stream needs measure_packets >= 1");
  }
  if (spec_.telemetry_window < 1) {
    throw std::invalid_argument("telemetry_window must be >= 1");
  }
  if (spec_.step_cap_factor <= 0.0) {
    throw std::invalid_argument("step_cap_factor must be > 0");
  }
  if (spec_.engine.record_trace || spec_.engine.redispatch_queued) {
    throw std::invalid_argument(
        "record_trace / redispatch_queued are unavailable when streaming");
  }
  if (spec_.engine.max_steps != 0) {
    throw std::invalid_argument(
        "set StreamSpec::max_steps (graceful truncation), not engine.max_steps "
        "(which would throw mid-run)");
  }
  if (!spec_.stages.empty()) {
    if (spec_.make_trace) {
      throw std::invalid_argument(
          "stages require generative traffic (staged trace replay goes through "
          "Engine::run(schedule))");
    }
    for (std::size_t i = 0; i < spec_.stages.size(); ++i) {
      const StageSpec& stage = spec_.stages[i];
      if (stage.duration < 0) {
        throw std::invalid_argument("stage duration must be >= 0");
      }
      if (stage.duration == 0 && i + 1 != spec_.stages.size()) {
        throw std::invalid_argument(
            "stage duration 0 (to end of run) is legal for the last stage only");
      }
      if (!(stage.rho > 0.0 || stage.rho == -1.0)) {
        throw std::invalid_argument("stage rho must be > 0 (or -1 to inherit)");
      }
      if (!(stage.on_stay == -1.0 || (stage.on_stay > 0.0 && stage.on_stay < 1.0)) ||
          !(stage.off_stay == -1.0 || (stage.off_stay > 0.0 && stage.off_stay < 1.0))) {
        throw std::invalid_argument(
            "stage on_stay/off_stay must lie in (0, 1) (or -1 to inherit)");
      }
    }
  }
}

std::vector<Time> stage_starts(const std::vector<StageSpec>& stages) {
  std::vector<Time> starts;
  starts.reserve(stages.size());
  Time t = 1;
  for (const StageSpec& stage : stages) {
    starts.push_back(t);
    t += stage.duration;
  }
  return starts;
}

TrafficConfig stage_traffic(const StreamSpec& spec, std::size_t k, std::uint64_t rep_seed,
                            int speedup_rounds) {
  const StageSpec& stage = spec.stages[k];
  TrafficConfig traffic = spec.traffic;
  traffic.shape.seed = rep_seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(k));
  traffic.speedup_rounds = speedup_rounds;
  if (stage.rho > 0.0) traffic.rho = stage.rho;
  if (stage.on_stay > 0.0) traffic.on_stay = stage.on_stay;
  if (stage.off_stay > 0.0) traffic.off_stay = stage.off_stay;
  return traffic;
}

StreamRepOutcome StreamRunner::run_repetition(const PolicyFactory& policy,
                                              std::uint64_t rep_seed,
                                              const CancelToken* cancel) const {
  StreamRepOutcome out;
  out.seed = rep_seed;

  const bool staged = !spec_.stages.empty();
  Topology topology;
  std::unique_ptr<TrafficSource> source;
  Time max_steps = spec_.max_steps;

  if (spec_.make_trace) {
    Instance instance = spec_.make_trace(rep_seed);
    const std::string error = instance.validate();
    if (!error.empty()) throw std::invalid_argument("invalid trace: " + error);
    // Trace replay: a trace source's rate is 0 by design, so the derived
    // cap below (a division by the rate) must never be taken on this path
    // -- the cap is the batch engine's starvation bound instead, and the
    // run drains the trace to completion.
    if (max_steps == 0) {
      max_steps = default_max_steps(instance, spec_.engine.reconfig_delay);
    }
    topology = instance.topology();
    source = make_trace_source(instance.packets());
  } else {
    topology = make_topology(spec_.topology, rep_seed);
    TrafficConfig traffic = spec_.traffic;
    traffic.shape.seed = rep_seed;
    traffic.speedup_rounds = spec_.engine.speedup_rounds;
    // The spec-level regime. A staged run replaces this source at stage
    // 0's entry (an override-free stage 0 draws the identical sequence);
    // its calibrated rate stays the run's nominal rate and sizes the cap.
    source = make_source(topology, traffic);
    if (max_steps == 0) {
      // A generative source's rate is > 0 (calibration throws on
      // zero-demand shapes), so the max() below is a pure division guard.
      const auto total =
          static_cast<double>(spec_.warmup_packets + spec_.measure_packets);
      max_steps = static_cast<Time>(spec_.step_cap_factor * total /
                                    std::max(source->rate(), 1e-9)) +
                  1024;
    }
  }
  out.target_rate = source->rate();

  auto dispatcher = policy.dispatcher();
  auto scheduler = policy.scheduler(topology);

  const auto measure_begin = static_cast<PacketIndex>(spec_.warmup_packets);
  const auto measure_end =
      static_cast<PacketIndex>(spec_.warmup_packets + spec_.measure_packets);

  // Stage bookkeeping (all inert when the spec declares no stages).
  std::size_t cur_stage = 0;
  const std::vector<Time> stage_start = stage_starts(spec_.stages);
  std::uint64_t stage_departed_base = 0;
  if (staged) out.stages.resize(spec_.stages.size());

  double latency_sum = 0.0;
  std::uint64_t served_this_step = 0;
  const auto sink = [&](RetiredPacket&& retired) {
    if (retired.outcome.dropped) {
      ++out.dropped;
      if (retired.id >= measure_begin && retired.id < measure_end) {
        ++out.dropped_measured;
      }
      if (staged) ++out.stages[cur_stage].dropped;
      return;
    }
    ++out.served;
    ++served_this_step;
    const Time latency = retired.outcome.completion - retired.arrival;
    if (staged) {
      StageOutcome& stage = out.stages[cur_stage];
      ++stage.served;
      stage.latency.add(latency);
    }
    if (retired.id >= measure_begin && retired.id < measure_end) {
      ++out.measured;
      out.latency.add(latency);
      latency_sum += static_cast<double>(latency);
    }
  };

  // spec_.engine.max_steps is 0 (enforced by the constructor): the runner
  // truncates gracefully at its own cap instead of letting the engine throw.
  EngineOptions engine_options = spec_.engine;
  engine_options.cancel = cancel;
  Engine engine(topology, *dispatcher, *scheduler, engine_options, sink);
  StreamTelemetry telemetry(spec_.telemetry_window);

  double offered_demand = 0.0;
  Time first_arrival = 0;
  Time last_arrival = 0;
  std::uint64_t arrivals_this_step = 0;

  // The arrival cursor: the current source's next packet, rebased onto the
  // run clock (stage k's 1-based arrival a lands at T_k - 1 + a) and
  // numbered in injection order, one id sequence across stage sources.
  std::optional<Packet> pending;
  Time rebase = 0;
  PacketIndex next_id = 0;
  const auto pull = [&] {
    pending = source->next();
    if (pending) {
      pending->arrival += rebase;
      pending->id = next_id;
    }
  };
  const auto peek = [&]() -> const Packet* { return pending ? &*pending : nullptr; };
  const auto pop = [&] {
    if (out.offered == 0) first_arrival = pending->arrival;
    last_arrival = pending->arrival;
    const std::int64_t demand =
        cheapest_demand(topology, pending->source, pending->destination);
    if (demand == 0) ++out.zero_demand;  // fixed-layer only: invisible to rho
    offered_demand += static_cast<double>(demand);
    ++out.offered;
    ++arrivals_this_step;
    if (staged) ++out.stages[cur_stage].offered;
    ++next_id;
    pull();
  };

  /// Enters stage k at its edge: applies the mutation (drops flow through
  /// the sink into this stage's counters), derives the traffic regime with
  /// the stage's overrides and swaps in its source, which calibrates it.
  /// The previous source's peeked packet is discarded -- the old regime
  /// ends at the stage edge.
  const auto enter_stage = [&](std::size_t k) {
    // Stage entry does runner-side work (mutation, calibration, source
    // rebuild) outside any engine step, so it honors the cancel token at
    // the same boundary contract the engine does inside begin_step.
    if (cancel != nullptr && cancel->cancelled()) {
      throw CancelledError("stream run cancelled at stage entry (deadline exceeded)");
    }
    cur_stage = k;
    StageOutcome& stage = out.stages[k];
    stage.start = stage_start[k];
    const MutationStats stats = engine.apply_mutation(spec_.stages[k].mutation);
    stage.edges_killed = stats.edges_killed;
    stage.edges_restored = stats.edges_restored;
    stage.requeued = stats.packets_requeued;
    out.requeued += stats.packets_requeued;
    // Calibration runs against the full topology: rho is nominal load on
    // the healthy fabric, failures are headwind the metrics expose.
    const TrafficConfig traffic =
        stage_traffic(spec_, k, rep_seed, engine.options().speedup_rounds);
    source = make_source(topology, traffic);
    stage.target_rate = source->rate();
    rebase = stage.start - 1;
    pull();
    stage.entry_backlog = engine.in_flight();
    stage_departed_base = out.served + out.dropped;
    if (stage.entry_backlog == 0) stage.drain_steps = 0;
  };

  /// A generative run stops once its measure range has retired (served or
  /// dropped); a trace drains. Either way the step cap truncates.
  const auto finished = [&] {
    if (!spec_.make_trace &&
        out.measured + out.dropped_measured >= spec_.measure_packets) {
      return true;
    }
    out.truncated = out.steps >= max_steps;
    return out.truncated;
  };

  const auto on_step = [&] {
    ++out.steps;
    telemetry.on_step(engine.now(), arrivals_this_step, served_this_step,
                      engine.in_flight(), engine.probe());
    arrivals_this_step = 0;
    // Reset here, not at the step's start: a stage mutation at the next
    // boundary can retire packets (requeue onto the fixed layer completes
    // them inside apply_mutation), and those serves belong to the step the
    // mutation governs -- resetting at the step's start would wipe them
    // and telemetry would under-count served.
    served_this_step = 0;
    if (staged) {
      StageOutcome& stage = out.stages[cur_stage];
      ++stage.steps;
      if (stage.drain_steps < 0 &&
          out.served + out.dropped - stage_departed_base >= stage.entry_backlog) {
        stage.drain_steps = engine.now() - stage.start + 1;
      }
    }
  };

  const auto start = std::chrono::steady_clock::now();
  pull();
  drive(engine, peek, pop, stage_start, enter_stage, finished, on_step);
  const auto stop = std::chrono::steady_clock::now();
  out.wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();

  // A mutation applied right before a terminal break can retire packets
  // after the last on_step; fold them into the trailing window.
  telemetry.absorb_boundary(served_this_step);
  out.series = telemetry.finish();
  if (engine.probe() != nullptr) out.probe = engine.probe()->report();
  const RunResult& aggregates = engine.aggregates();
  out.total_cost = aggregates.total_cost;
  out.makespan = aggregates.makespan;
  out.peak_resident = engine.peak_resident_slots();
  out.peak_backlog = 0;
  double backlog_weighted = 0.0;
  for (const StreamWindow& window : out.series) {
    backlog_weighted += window.mean_backlog * static_cast<double>(window.steps);
    out.peak_backlog = std::max(out.peak_backlog, window.peak_backlog);
  }
  if (out.steps > 0) {
    out.mean_backlog = backlog_weighted / static_cast<double>(out.steps);
    out.throughput = static_cast<double>(out.served) / static_cast<double>(out.steps);
  }
  if (out.measured > 0) {
    out.mean_latency = latency_sum / static_cast<double>(out.measured);
  }
  if (out.offered > 0) {
    const auto span = static_cast<double>(last_arrival - first_arrival + 1);
    out.offered_rate = static_cast<double>(out.offered) / span;
    out.measured_rho =
        offered_demand / (span * service_capacity(topology, spec_.engine.speedup_rounds));
  }
  return out;
}

StreamResult StreamRunner::aggregate(const PolicyFactory& policy,
                                     std::vector<StreamRepOutcome> outcomes) const {
  StreamResult result;
  result.scenario = spec_.name;
  result.policy = policy.name;
  result.repetitions = std::move(outcomes);
  for (const StreamRepOutcome& rep : result.repetitions) {
    if (rep.truncated) ++result.truncated_reps;
    result.zero_demand += rep.zero_demand;
    result.dropped += rep.dropped;
    result.requeued += rep.requeued;
    // Truncated repetitions carry censored latency samples (only the
    // packets that retired before the cap); keep them out of the converged
    // summary and merge them into the parallel histogram instead.
    if (rep.truncated) {
      result.latency_truncated.merge(rep.latency);
    } else {
      result.latency.merge(rep.latency);
    }
    result.throughput.add(rep.throughput);
    result.backlog.add(rep.mean_backlog);
    result.measured_rho.add(rep.measured_rho);
    result.wall_ms.add(rep.wall_ms);
    merge_report(result.probe, rep.probe);
  }
  return result;
}

StreamResult StreamRunner::run(const PolicyFactory& policy) const {
  std::vector<StreamRepOutcome> outcomes;
  for (const std::uint64_t seed : seeds()) {
    outcomes.push_back(run_repetition(policy, seed));
  }
  return aggregate(policy, std::move(outcomes));
}

}  // namespace rdcn

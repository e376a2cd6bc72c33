#include "check/differential.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "core/alg.hpp"
#include "core/charging.hpp"
#include "core/impact.hpp"
#include "core/dual_witness.hpp"
#include "opt/brute_force.hpp"
#include "opt/lower_bounds.hpp"
#include "run/policies.hpp"
#include "run/scenario.hpp"
#include "sim/drive.hpp"
#include "sim/metrics.hpp"
#include "traffic/source.hpp"

namespace rdcn::check {

namespace {

/// Relative tolerance of the cost and certificate comparisons, scaled to
/// the magnitudes compared (costs grow with instance size; the oracles
/// recompute them through different arithmetic orders).
constexpr double kTolerance = 1e-6;
/// Arrival-prefix length recorded for a stream spec's batch replay.
constexpr std::size_t kStreamReplayPackets = 1500;

bool leq(double a, double b) {
  return a <= b + kTolerance * (1.0 + std::max(std::abs(a), std::abs(b)));
}

bool close(double a, double b) {
  return std::abs(a - b) <= kTolerance * (1.0 + std::max(std::abs(a), std::abs(b)));
}

std::vector<std::string> policy_list(const DiffOptions& options) {
  return options.policies.empty() ? policy_names() : options.policies;
}

EngineOptions streamable(const Instance& instance, EngineOptions options) {
  // Keep the batch run's starvation guard: a streaming-mode engine bug
  // that strands a candidate must surface as a thrown violation, not hang
  // the drive loop (with 0 the guard is disabled).
  options.max_steps = default_max_steps(instance, options.reconfig_delay);
  return options;
}

/// Drives a streaming engine over the instance's recorded arrivals
/// through the stage clock Engine::run(schedule) uses, applying
/// `schedule`'s mutations (empty = a plain replay), and compares every
/// aggregate, the drop/requeue counters and every per-packet outcome
/// (dropped flag included) against the batch run.
/// Returns human-readable mismatch descriptions (empty = bit-for-bit);
/// a throw from the streamed replay (audit, engine guard) is itself a
/// mismatch, never an escape.
std::vector<std::string> compare_batch_vs_stream(
    const Instance& instance, const std::vector<TimedMutation>& schedule,
    const PolicyFactory& policy, const EngineOptions& options, const RunResult& batch,
    std::uint64_t batch_dropped, std::uint64_t batch_requeued) {
  std::vector<std::string> mismatches;
  auto dispatcher = policy.dispatcher();
  auto scheduler = policy.scheduler(instance.topology());
  std::vector<RetiredPacket> retired(instance.num_packets());
  std::vector<bool> seen(instance.num_packets(), false);
  Engine engine(instance.topology(), *dispatcher, *scheduler,
                streamable(instance, options),
                [&](RetiredPacket&& packet) {
                  const auto index = static_cast<std::size_t>(packet.id);
                  if (index >= seen.size() || seen[index]) {
                    mismatches.push_back("stream retired unexpected packet " +
                                         std::to_string(packet.id));
                    return;
                  }
                  seen[index] = true;
                  retired[index] = std::move(packet);
                });
  try {
    drive_recorded(engine, instance.packets(), schedule);
  } catch (const std::exception& error) {
    mismatches.push_back(std::string("streamed replay threw: ") + error.what());
    return mismatches;
  }

  const RunResult& aggregates = engine.aggregates();
  if (aggregates.total_cost != batch.total_cost ||
      aggregates.reconfig_cost != batch.reconfig_cost ||
      aggregates.fixed_cost != batch.fixed_cost || aggregates.makespan != batch.makespan ||
      aggregates.steps_simulated != batch.steps_simulated) {
    mismatches.push_back("stream aggregates diverge from batch (cost " +
                         std::to_string(aggregates.total_cost) + " vs " +
                         std::to_string(batch.total_cost) + ")");
  }
  if (engine.packets_dropped() != batch_dropped ||
      engine.packets_requeued() != batch_requeued) {
    mismatches.push_back(
        "stream drop/requeue counters diverge from batch (" +
        std::to_string(engine.packets_dropped()) + "/" +
        std::to_string(engine.packets_requeued()) + " vs " +
        std::to_string(batch_dropped) + "/" + std::to_string(batch_requeued) + ")");
  }
  for (std::size_t i = 0; i < instance.num_packets(); ++i) {
    if (!seen[i]) {
      mismatches.push_back("packet " + std::to_string(i) +
                           " never retired or dropped streaming");
      continue;
    }
    const PacketOutcome& want = batch.outcomes[i];
    const PacketOutcome& got = retired[i].outcome;
    if (got.dropped != want.dropped || got.route.use_fixed != want.route.use_fixed ||
        got.route.edge != want.route.edge || got.completion != want.completion ||
        got.weighted_latency != want.weighted_latency ||
        got.chunk_transmit_steps != want.chunk_transmit_steps) {
      mismatches.push_back("packet " + std::to_string(i) +
                           " outcome diverges between batch and stream (completion " +
                           std::to_string(want.completion) + " vs " +
                           std::to_string(got.completion) + ")");
    }
  }
  return mismatches;
}

/// A staged spec's arrival prefix and mutation schedule, reconstructed
/// exactly as StreamRunner's staged drive derives them: stage clocks from
/// stage_starts, one source per stage from stage_traffic (speedup
/// tracking the engine's post-mutation options), arrivals rebased to the
/// stage clock, draws past the stage end discarded, ids renumbered
/// globally. The prefix is finite, so batch and stream replays of it
/// share a horizon.
struct StagedReplay {
  std::vector<Packet> arrivals;
  std::vector<TimedMutation> schedule;
};

StagedReplay build_staged_replay(const StreamSpec& spec, const Topology& topology,
                                 std::uint64_t rep_seed, std::size_t max_packets) {
  StagedReplay replay;
  const std::vector<Time> start = stage_starts(spec.stages);
  int speedup = spec.engine.speedup_rounds;
  PacketIndex next_id = 0;
  for (std::size_t k = 0; k < spec.stages.size(); ++k) {
    const StageSpec& stage = spec.stages[k];
    if (stage.mutation.speedup_rounds > 0) speedup = stage.mutation.speedup_rounds;
    replay.schedule.push_back({start[k], stage.mutation});
    const auto source = make_source(topology, stage_traffic(spec, k, rep_seed, speedup));
    const bool bounded = k + 1 < spec.stages.size();
    while (replay.arrivals.size() < max_packets) {
      std::optional<Packet> packet = source->next();
      if (!packet) break;
      packet->arrival += start[k] - 1;
      // Arrivals are non-decreasing, so the first draw past the stage end
      // ends the stage (the streamed drive discards it at stage entry).
      if (bounded && packet->arrival > start[k + 1] - 1) break;
      packet->id = next_id++;
      replay.arrivals.push_back(*packet);
    }
    if (replay.arrivals.size() >= max_packets) break;
  }
  return replay;
}

/// One policy's audited batch run plus the self-consistency and stream
/// equivalence checks shared by the standard and variant passes. Returns
/// the run's cost, or nothing if the engine threw.
std::optional<double> run_and_check(const Instance& instance, const std::string& name,
                                    const EngineOptions& engine_options,
                                    const DiffOptions& options, const char* label,
                                    DiffReport& report) {
  const PolicyFactory policy = named_policy(name);
  RunResult run;
  try {
    auto dispatcher = policy.dispatcher();
    auto scheduler = policy.scheduler(instance.topology());
    run = simulate(instance, *dispatcher, *scheduler, engine_options);
  } catch (const std::exception& error) {
    report.violations.push_back(std::string(label) + name + ": engine threw: " +
                                error.what());
    return std::nullopt;
  }
  ++report.checks;
  if (!all_delivered(instance, run)) {
    report.violations.push_back(std::string(label) + name + ": not every packet delivered");
  }
  if (!close(recompute_cost(instance, run), run.total_cost)) {
    report.violations.push_back(std::string(label) + name +
                                ": engine cost != per-chunk recomputation");
  }
  if (!close(recompute_cost_active_form(instance, run), run.total_cost)) {
    report.violations.push_back(std::string(label) + name +
                                ": engine cost != active-form recomputation");
  }
  if (!close(run.reconfig_cost + run.fixed_cost, run.total_cost)) {
    report.violations.push_back(std::string(label) + name +
                                ": reconfig + fixed cost shares do not sum to the total");
  }
  if (options.check_stream_equivalence) {
    ++report.checks;
    // No mutations: nothing drops or requeues.
    for (std::string& mismatch :
         compare_batch_vs_stream(instance, {}, policy, engine_options, run, 0, 0)) {
      report.violations.push_back(std::string(label) + name + ": " + std::move(mismatch));
    }
  }
  return run.total_cost;
}

/// ALG's dispatcher -- its own rule, impact_route -- with a Delta that,
/// for every candidate edge the rule evaluates, cross-validates the
/// engine's incremental impact index against both oracles. Both read the
/// engine's one pending structure, the edge queues, at the edges incident
/// to e's transmitter or receiver (each packet once):
///
///  * the naive scan (impact_of_scan): base and h_count must match
///    EXACTLY (integer / identical arithmetic); l_weight and delta to a
///    tight relative tolerance scaled by the endpoint weight mass (the
///    two sides sum the same terms in different associations, and the
///    (t + r) - pair combination can cancel);
///  * a fresh ImpactAggregate per endpoint, rebuilt from the queues in
///    scan order and combined through combine_impact: must
///    match the live index BIT FOR BIT (canonical shape makes the sums a
///    pure function of the pending multiset);
///  * the index's O(1) integer edge load against a scan of the queues
///    (JSQ's signal): exact.
///
/// The run it drives is therefore ALG's run; the checks are pure readers.
class CrossCheckedImpactDispatcher final : public DispatchPolicy {
 public:
  explicit CrossCheckedImpactDispatcher(DiffReport& report) : report_(&report) {}

  std::size_t checked_edges() const noexcept { return checked_; }

  RouteDecision dispatch(const Engine& engine, const Packet& packet) override {
    return impact_route(engine, packet, [&](EdgeIndex e) {
      const ImpactBreakdown indexed = impact_of(engine, packet, e);
      verify_edge(engine, packet, e, indexed);
      return indexed.delta;
    });
  }

 private:
  static constexpr std::size_t kMaxReported = 8;  ///< don't flood the report

  void violation(std::string message) {
    if (report_->violations.size() < kMaxReported) {
      report_->violations.push_back(std::move(message));
    }
  }

  void verify_edge(const Engine& engine, const Packet& packet, EdgeIndex e,
                   const ImpactBreakdown& indexed) {
    ++checked_;
    const Topology& topology = engine.topology();
    const ReconfigEdge& edge = topology.edge(e);
    const double threshold =
        packet.weight / static_cast<double>(edge.delay);
    const std::string where = "impact index, packet " + std::to_string(packet.id) +
                              " edge " + std::to_string(e) + ": ";

    // Oracle 1: the naive candidate scan.
    const ImpactBreakdown scan = impact_of_scan(engine, packet, e);
    if (indexed.base != scan.base || indexed.h_count != scan.h_count) {
      violation(where + "index (h " + std::to_string(indexed.h_count) + ") != scan (h " +
                std::to_string(scan.h_count) + ") on the exact fields");
    }

    // Oracle 2: fresh canonical-shape aggregates from the queues, plus the
    // exact integer load scan. The pair aggregate holds the packets at both
    // endpoints -- those assigned to a parallel edge of e's (t, r) pair.
    t_agg_.clear();
    r_agg_.clear();
    p_agg_.clear();
    std::int64_t scan_load = 0;
    engine.for_each_pending_at(edge.transmitter, edge.receiver, [&](const Candidate& c) {
      const bool at_t = c.transmitter == edge.transmitter;
      const bool at_r = c.receiver == edge.receiver;
      if (at_t) t_agg_.add(c.chunk_weight, c.remaining);
      if (at_r) r_agg_.add(c.chunk_weight, c.remaining);
      if (at_t && at_r) p_agg_.add(c.chunk_weight, c.remaining);
      scan_load += c.remaining;
    });
    const WeightBelow t_below = t_agg_.below(threshold);
    const WeightBelow r_below = r_agg_.below(threshold);
    const ImpactSplit fresh = combine_impact(t_agg_.chunks(), t_below, r_agg_.chunks(),
                                             r_below, p_agg_.chunks(),
                                             p_agg_.below(threshold));
    const ImpactSplit live = engine.impact_split(e, threshold);
    if (live.heavier != fresh.heavier || live.lighter_weight != fresh.lighter_weight) {
      violation(where + "live index != fresh canonical rebuild bit-for-bit (lighter " +
                std::to_string(live.lighter_weight) + " vs " +
                std::to_string(fresh.lighter_weight) + ")");
    }
    if (engine.impact_index().edge_load(e) != scan_load) {
      violation(where + "index edge load " +
                std::to_string(engine.impact_index().edge_load(e)) + " != candidate scan " +
                std::to_string(scan_load));
    }

    // Scan-vs-index l_weight/delta: same terms, different association; the
    // scale is the weight mass the two sides summed, not the (possibly
    // cancelled) result.
    const double scale = 1.0 + t_below.weight + r_below.weight;
    if (std::abs(indexed.l_weight - scan.l_weight) > 1e-9 * scale) {
      violation(where + "index l_weight " + std::to_string(indexed.l_weight) +
                " strays from scan " + std::to_string(scan.l_weight));
    }
    const double d = static_cast<double>(edge.delay);
    if (std::abs(indexed.delta - scan.delta) > 1e-9 * (1.0 + std::abs(scan.base)) +
                                                   1e-9 * d * scale +
                                                   1e-9 * std::abs(packet.weight) *
                                                       static_cast<double>(scan.h_count)) {
      violation(where + "index delta " + std::to_string(indexed.delta) +
                " strays from scan " + std::to_string(scan.delta));
    }
  }

  DiffReport* report_;
  std::size_t checked_ = 0;
  ImpactAggregate t_agg_, r_agg_, p_agg_;
};

}  // namespace

void check_impact_index(const Instance& instance, DiffReport& report) {
  ++report.checks;
  CrossCheckedImpactDispatcher dispatcher(report);
  try {
    StableMatchingScheduler scheduler;
    EngineOptions options;
    options.audit = false;  // pure reader pass; the audited run already ran
    simulate(instance, dispatcher, scheduler, options);
  } catch (const std::exception& error) {
    report.violations.push_back(std::string("impact index replay threw: ") + error.what());
    return;
  }
  if (dispatcher.checked_edges() == 0 && instance.num_packets() > 0) {
    // Not a bug by itself (all-fixed instances have no candidate edges),
    // but worth surfacing to the fuzz statistics.
    report.skipped.push_back("impact index cross-check saw no candidate edges");
  }
}

std::string DiffReport::to_string() const {
  std::string joined;
  for (const std::string& violation : violations) {
    if (!joined.empty()) joined += "\n";
    joined += violation;
  }
  return joined.empty() ? "no violations" : joined;
}

Instance truncate_packets(const Instance& instance, std::size_t keep) {
  const auto& packets = instance.packets();
  Instance truncated(instance.topology(), std::vector<Packet>(
                                              packets.begin(),
                                              packets.begin() + static_cast<std::ptrdiff_t>(
                                                                    std::min(keep, packets.size()))));
  return truncated;
}

DiffReport check_instance(const Instance& instance, const DiffOptions& options) {
  DiffReport report;
  ++report.checks;
  const std::string invalid = instance.validate();
  if (!invalid.empty()) {
    report.violations.push_back("instance invalid: " + invalid);
    return report;
  }

  EngineOptions base;
  base.audit = true;
  const std::vector<std::string> names = policy_list(options);
  std::vector<std::pair<std::string, double>> costs;
  for (const std::string& name : names) {
    if (const auto cost = run_and_check(instance, name, base, options, "", report)) {
      costs.emplace_back(name, *cost);
    }
  }
  for (const EngineOptions& variant : options.variants) {
    EngineOptions audited = variant;
    audited.audit = true;
    const std::string label = "variant(speedup " + std::to_string(variant.speedup_rounds) +
                              ", capacity " + std::to_string(variant.endpoint_capacity) +
                              ", reconfig " + std::to_string(variant.reconfig_delay) +
                              (variant.redispatch_queued ? ", migratory" : "") + ") ";
    for (const std::string& name : options.variant_policies) {
      run_and_check(instance, name, audited, options, label.c_str(), report);
    }
  }

  // Bound relations (valid in the unit-speed analysis model the base runs
  // use): no schedule beats the trivial bound or the exhaustive optimum.
  const double ideal = instance.ideal_cost();
  ++report.checks;
  for (const auto& [name, cost] : costs) {
    if (!leq(ideal, cost)) {
      report.violations.push_back(name + ": cost " + std::to_string(cost) +
                                  " beats the trivial lower bound " + std::to_string(ideal));
    }
  }
  if (instance.num_packets() <= BruteForceLimits{}.max_packets) {
    if (const auto optimum = brute_force_opt(instance)) {
      ++report.checks;
      for (const auto& [name, cost] : costs) {
        if (!leq(optimum->cost, cost)) {
          report.violations.push_back(name + ": cost " + std::to_string(cost) +
                                      " beats the exhaustive optimum " +
                                      std::to_string(optimum->cost));
        }
      }
      if (!leq(ideal, optimum->cost)) {
        report.violations.push_back("trivial bound " + std::to_string(ideal) +
                                    " exceeds the exhaustive optimum " +
                                    std::to_string(optimum->cost));
      }
    } else {
      report.skipped.push_back("brute force hit its search limits");
    }
  }

  // ALG's analysis certificates: charging scheme, dual witness, LP bound.
  if (std::find(names.begin(), names.end(), "alg") != names.end()) {
    check_impact_index(instance, report);
    try {
      EngineOptions audited;
      audited.audit = true;
      const RunResult run = run_alg(instance, audited);

      ++report.checks;
      const ChargingAudit charging = audit_charging(instance, run);
      if (charging.max_overcharge > kTolerance * (1.0 + std::abs(run.total_cost))) {
        report.violations.push_back("charging: a packet is charged beyond its alpha "
                                    "(Lemma 2 violated by " +
                                    std::to_string(charging.max_overcharge) + ")");
      }
      if (charging.cover_gap > kTolerance * (1.0 + std::abs(run.total_cost))) {
        report.violations.push_back("charging: charges do not partition ALG's cost (gap " +
                                    std::to_string(charging.cover_gap) + ")");
      }
      if (instance.has_integer_weights()) {
        ++report.checks;
        const ExactChargingAudit exact = audit_charging_exact(instance, run);
        if (!exact.charges_cover_cost) {
          report.violations.push_back("charging: exact rational charges miss the cost");
        }
        if (!exact.within_alpha) {
          report.violations.push_back("charging: exact rational charge exceeds alpha");
        }
      }

      ++report.checks;
      const DualWitness witness = build_dual_witness(instance, run);
      if (!check_dual_feasibility(instance, witness).halved_feasible) {
        report.violations.push_back("dual witness: halved witness infeasible (Lemma 4/5)");
      }
      if (lemma1_gap(witness, run) > kTolerance * (1.0 + std::abs(run.total_cost))) {
        report.violations.push_back("dual witness: Lemma 1 beta/cost balance broken");
      }

      const LowerBounds bounds = compute_lower_bounds(instance, LowerBoundOptions{});
      ++report.checks;
      if (bounds.lp_bound && !leq(bounds.dual_witness_bound, *bounds.lp_bound)) {
        report.violations.push_back(
            "weak duality broken: dual witness bound " +
            std::to_string(bounds.dual_witness_bound) + " exceeds the LP optimum " +
            std::to_string(*bounds.lp_bound));
      }
    } catch (const std::exception& error) {
      report.violations.push_back(std::string("certificate pipeline threw: ") +
                                  error.what());
    }
  }
  return report;
}

DiffReport check_stream(const StreamSpec& spec, std::uint64_t rep_seed,
                        const DiffOptions& options) {
  DiffReport report;
  StreamSpec audited = spec;
  audited.engine.audit = true;

  std::unique_ptr<StreamRunner> runner;
  try {
    runner = std::make_unique<StreamRunner>(audited);
  } catch (const std::invalid_argument& error) {
    report.skipped.push_back(std::string("stream spec rejected: ") + error.what());
    return report;
  }

  bool calibrated = true;
  for (const std::string& name : policy_list(options)) {
    const PolicyFactory policy = named_policy(name);
    StreamRepOutcome out;
    try {
      out = runner->run_repetition(policy, rep_seed);
    } catch (const std::invalid_argument& error) {
      // Spec-level rejection (e.g. rho calibration refusing a shape whose
      // pairs mostly never touch the reconfigurable layer) -- same for
      // every policy, so note it once and stop.
      report.skipped.push_back(std::string("stream spec rejected: ") + error.what());
      calibrated = false;
      break;
    } catch (const std::exception& error) {
      report.violations.push_back(name + ": stream run threw: " + error.what());
      continue;
    }
    ++report.checks;
    if (out.latency.count() != out.measured) {
      report.violations.push_back(name + ": histogram holds " +
                                  std::to_string(out.latency.count()) + " samples for " +
                                  std::to_string(out.measured) + " measured packets");
    }
    if (out.measured > out.served || out.served > out.offered) {
      report.violations.push_back(name + ": measured/served/offered not nested (" +
                                  std::to_string(out.measured) + "/" +
                                  std::to_string(out.served) + "/" +
                                  std::to_string(out.offered) + ")");
    }
    // Staged runs retire the measure range as completions plus failure
    // drops (ids are counted once either way); unstaged runs never drop,
    // so this is the historical measured == measure_packets check there.
    if (!spec.make_trace && !out.truncated &&
        out.measured + out.dropped_measured != spec.measure_packets) {
      report.violations.push_back(name + ": un-truncated run measured " +
                                  std::to_string(out.measured) + " + dropped " +
                                  std::to_string(out.dropped_measured) + " of " +
                                  std::to_string(spec.measure_packets) + " packets");
    }
    if (out.steps > 0 &&
        !close(out.throughput,
               static_cast<double>(out.served) / static_cast<double>(out.steps))) {
      report.violations.push_back(name + ": throughput != served / steps");
    }
    if (out.measured > 0 && !close(out.mean_latency, out.latency.mean())) {
      report.violations.push_back(name + ": mean latency disagrees with the histogram");
    }
    if (out.measured > 0 && out.latency.min() < 1) {
      report.violations.push_back(name + ": a measured packet completed in < 1 step");
    }
    if (out.zero_demand > out.offered) {
      report.violations.push_back(name + ": zero-demand count exceeds offered packets");
    }
    std::uint64_t window_arrivals = 0, window_served = 0;
    Time window_steps = 0;
    for (const StreamWindow& window : out.series) {
      window_arrivals += window.arrivals;
      window_served += window.served;
      window_steps += window.steps;
    }
    if (window_arrivals != out.offered || window_served != out.served ||
        window_steps != out.steps) {
      report.violations.push_back(name + ": telemetry series totals disagree with the "
                                  "run (arrivals " + std::to_string(window_arrivals) +
                                  "/" + std::to_string(out.offered) + ", served " +
                                  std::to_string(window_served) + "/" +
                                  std::to_string(out.served) + ", steps " +
                                  std::to_string(window_steps) + "/" +
                                  std::to_string(out.steps) + ")");
    }
    if (!spec.stages.empty()) {
      ++report.checks;
      if (out.served + out.dropped > out.offered) {
        report.violations.push_back(name + ": served + dropped exceeds offered (" +
                                    std::to_string(out.served) + " + " +
                                    std::to_string(out.dropped) + " > " +
                                    std::to_string(out.offered) + ")");
      }
      if (out.dropped_measured > out.dropped) {
        report.violations.push_back(name + ": measured drops exceed total drops");
      }
      std::uint64_t stage_offered = 0, stage_served = 0, stage_dropped = 0;
      for (const StageOutcome& stage : out.stages) {
        stage_offered += stage.offered;
        stage_served += stage.served;
        stage_dropped += stage.dropped;
        if (stage.drain_steps < -1) {
          report.violations.push_back(name + ": negative stage drain time");
        }
      }
      // Every event is attributed to exactly one stage.
      if (stage_offered != out.offered || stage_served != out.served ||
          stage_dropped != out.dropped) {
        report.violations.push_back(
            name + ": stage attribution does not cover the run (offered " +
            std::to_string(stage_offered) + "/" + std::to_string(out.offered) +
            ", served " + std::to_string(stage_served) + "/" +
            std::to_string(out.served) + ", dropped " + std::to_string(stage_dropped) +
            "/" + std::to_string(out.dropped) + ")");
      }
      // Bit-for-bit determinism in (spec, seed): the staged drive's stage
      // re-seeding, mutation clocking and drop bookkeeping must replay
      // identically.
      ++report.checks;
      const StreamRepOutcome again = runner->run_repetition(policy, rep_seed);
      if (again.offered != out.offered || again.served != out.served ||
          again.dropped != out.dropped || again.requeued != out.requeued ||
          again.measured != out.measured || again.steps != out.steps ||
          again.total_cost != out.total_cost ||
          again.latency.count() != out.latency.count() ||
          again.latency.mean() != out.latency.mean()) {
        report.violations.push_back(name + ": staged repetition is not deterministic "
                                    "(cost " + std::to_string(out.total_cost) + " vs " +
                                    std::to_string(again.total_cost) + ")");
      }
    }
  }

  // Batch-vs-stream differential on a recorded arrival prefix from the
  // identical source(s): per-packet outcomes must agree bit-for-bit. A
  // staged spec replays its staged prefix plus mutation schedule through
  // Engine::run(schedule) against a streaming drive applying the same
  // mutations; drop/requeue counters must agree too.
  if (!calibrated || !options.check_stream_equivalence || spec.make_trace) return report;
  const bool staged = !spec.stages.empty();
  // Under a reconfiguration delay the demand-oblivious / randomized
  // baselines can legitimately starve a finite batch replay (the streamed
  // run merely truncates); replay only the robust policies -- intersected
  // with the caller's selection so a restricted sweep never reports a
  // policy it excluded.
  std::vector<std::string> replay_policies = policy_list(options);
  if (spec.engine.reconfig_delay > 0) {
    std::erase_if(replay_policies, [&](const std::string& name) {
      return std::find(options.variant_policies.begin(), options.variant_policies.end(),
                       name) == options.variant_policies.end();
    });
  }
  try {
    const Topology topology = make_topology(spec.topology, rep_seed);
    const std::size_t prefix = std::min(spec.warmup_packets + spec.measure_packets,
                                        kStreamReplayPackets);
    if (!staged) {
      TrafficConfig traffic = spec.traffic;
      traffic.shape.seed = rep_seed;
      traffic.speedup_rounds = spec.engine.speedup_rounds;
      const auto source = make_source(topology, traffic);
      const Instance recorded(topology, record_arrivals(*source, prefix));
      for (const std::string& name : replay_policies) {
        run_and_check(recorded, name, audited.engine, options, "recorded prefix, ",
                      report);
      }
      if (std::find(replay_policies.begin(), replay_policies.end(), "alg") !=
          replay_policies.end()) {
        check_impact_index(recorded, report);
      }
      return report;
    }
    const StagedReplay replay = build_staged_replay(spec, topology, rep_seed, prefix);
    if (replay.arrivals.empty()) return report;
    const Instance recorded(topology, std::vector<Packet>(replay.arrivals));
    for (const std::string& name : replay_policies) {
      const PolicyFactory policy = named_policy(name);
      RunResult batch;
      std::uint64_t batch_dropped = 0, batch_requeued = 0;
      try {
        auto dispatcher = policy.dispatcher();
        auto scheduler = policy.scheduler(topology);
        Engine engine(recorded, *dispatcher, *scheduler, audited.engine);
        batch = engine.run(replay.schedule);
        batch_dropped = engine.packets_dropped();
        batch_requeued = engine.packets_requeued();
      } catch (const std::exception& error) {
        report.violations.push_back("staged replay, " + name + ": engine threw: " +
                                    error.what());
        continue;
      }
      ++report.checks;
      for (std::string& mismatch :
           compare_batch_vs_stream(recorded, replay.schedule, policy, audited.engine,
                                   batch, batch_dropped, batch_requeued)) {
        report.violations.push_back("staged replay, " + name + ": " +
                                    std::move(mismatch));
      }
    }
  } catch (const std::invalid_argument& error) {
    report.skipped.push_back(std::string(staged ? "staged replay rejected: "
                                                : "stream spec rejected: ") +
                             error.what());
  }
  return report;
}

}  // namespace rdcn::check

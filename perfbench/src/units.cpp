#include "units.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "net/builders.hpp"
#include "run/policies.hpp"
#include "sim/metrics.hpp"
#include "traffic/source.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

Op dispatch_op(const std::string& policy) {
  return policy == "alg" ? Op::CoreDispatch : Op::BaselineDispatch;
}

Op select_op(const std::string& policy) {
  if (policy == "alg") return Op::CoreSelect;
  if (policy == "maxweight") return Op::MaxWeightSelect;
  if (policy == "fifo") return Op::FifoSelect;
  throw std::invalid_argument("no traced select span for policy '" + policy + "'");
}

/// The registry policy, with the scheduler factory stamping the process CPU
/// clock once it has built the scheduler -- the last set-up step before the
/// engine starts -- so the run splits into set-up and simulation without
/// any per-call wrapper. With `plant_ns` the scheduler is wrapped in the
/// self-test's busy-waiting decorator.
rdcn::PolicyFactory marked_policy(const std::string& name, std::uint64_t plant_ns,
                                  double* mark) {
  rdcn::PolicyFactory policy = rdcn::named_policy(name);
  policy.scheduler = [make = policy.scheduler, plant_ns, mark, name](
                         const rdcn::Topology& topology) {
    std::unique_ptr<rdcn::SchedulePolicy> scheduler = make(topology);
    if (plant_ns > 0) {
      scheduler = std::make_unique<TracedScheduler>(std::move(scheduler), nullptr,
                                                    select_op(name), plant_ns);
    }
    *mark = cpu_seconds();
    return scheduler;
  };
  return policy;
}

std::string check_batch(const rdcn::Instance& instance, const rdcn::RunResult& run) {
  if (!rdcn::all_delivered(instance, run)) return "batch: all_delivered failed";
  const double recomputed = rdcn::recompute_cost(instance, run);
  if (std::abs(recomputed - run.total_cost) > 1e-9 * std::max(1.0, std::abs(run.total_cost))) {
    std::ostringstream message;
    message.precision(17);
    message << "batch: recompute_cost " << recomputed << " != engine total_cost "
            << run.total_cost;
    return message.str();
  }
  return {};
}

SimOutput batch_output(const rdcn::Instance& instance, const rdcn::RunResult& run) {
  SimOutput out;
  out.offered = instance.num_packets();
  out.served = instance.num_packets();
  out.steps = run.steps_simulated;
  out.total_cost = run.total_cost;
  const auto& packets = instance.packets();
  for (std::size_t i = 0; i < packets.size(); ++i) {
    out.latency.add(run.outcomes[i].completion - packets[i].arrival);
  }
  return out;
}

SimOutput stream_output(const rdcn::StreamRepOutcome& rep) {
  SimOutput out;
  out.offered = rep.offered;
  out.served = rep.served;
  out.dropped = rep.dropped;
  out.requeued = rep.requeued;
  out.steps = rep.steps;
  out.truncated = rep.truncated;
  out.total_cost = rep.total_cost;
  out.latency = rep.latency;
  return out;
}

std::string check_stream(const rdcn::StreamSpec& spec, const rdcn::StreamRepOutcome& rep) {
  if (rep.offered < rep.served + rep.dropped) return "stream: retired more than offered";
  if (!rep.truncated && rep.measured + rep.dropped_measured != spec.measure_packets) {
    return "stream: converged run did not account for every measured packet";
  }
  if (!spec.stages.empty()) {
    std::uint64_t offered = 0, served = 0, dropped = 0, requeued = 0;
    for (const rdcn::StageOutcome& stage : rep.stages) {
      offered += stage.offered;
      served += stage.served;
      dropped += stage.dropped;
      requeued += stage.requeued;
    }
    if (offered != rep.offered || served != rep.served || dropped != rep.dropped ||
        requeued != rep.requeued) {
      return "stream: stage sums differ from the run totals";
    }
  }
  return {};
}

UnitRun batch_unit(const Workload& workload, const Unit& unit, const UnitOptions& options) {
  rdcn::ScenarioSpec spec = workload.scenario;
  spec.base_seed = unit.seed;
  spec.engine.audit = options.audit;
  const rdcn::ScenarioRunner runner(spec);
  double mark = 0.0;
  const rdcn::PolicyFactory policy = marked_policy(unit.policy, options.plant_select_ns, &mark);

  UnitRun result;
  const double start = cpu_seconds();
  const rdcn::Instance instance = runner.instance(unit.seed);
  const rdcn::RunResult run = runner.run_once(policy, instance);
  const double stop = cpu_seconds();
  result.setup_cpu_s = mark - start;
  result.sim_cpu_s = stop - mark;
  result.out = batch_output(instance, run);
  result.error = check_batch(instance, run);
  return result;
}

UnitRun stream_unit(const Workload& workload, const Unit& unit, const UnitOptions& options) {
  rdcn::StreamSpec spec = workload.stream;
  spec.engine.audit = options.audit;
  const rdcn::StreamRunner runner(spec);
  double mark = 0.0;
  const rdcn::PolicyFactory policy = marked_policy(unit.policy, options.plant_select_ns, &mark);

  UnitRun result;
  const double start = cpu_seconds();
  const rdcn::StreamRepOutcome rep = runner.run_repetition(policy, unit.seed);
  const double stop = cpu_seconds();
  result.setup_cpu_s = mark - start;
  result.sim_cpu_s = stop - mark;
  result.out = stream_output(rep);
  result.error = check_stream(spec, rep);
  return result;
}

UnitRun batch_unit_traced(const Workload& workload, const Unit& unit,
                          const UnitOptions& options, Tracer& tracer) {
  rdcn::ScenarioSpec spec = workload.scenario;
  spec.engine.audit = options.audit;
  const rdcn::PolicyFactory policy = rdcn::named_policy(unit.policy);

  UnitRun result;
  const std::uint64_t wall_start = wall_ns();
  const double start = cpu_seconds();
  // ScenarioRunner::instance's body, with its two layer calls timed apart.
  std::optional<rdcn::Topology> topology;
  {
    Scope span(&tracer, Op::NetBuild);
    topology = rdcn::make_topology(spec.topology, unit.seed);
  }
  std::optional<rdcn::Instance> instance;
  {
    Scope span(&tracer, Op::WorkloadGenerate);
    rdcn::WorkloadConfig config = spec.workload;
    config.seed = unit.seed;
    instance = rdcn::generate_workload(*topology, config);
  }
  std::unique_ptr<rdcn::DispatchPolicy> dispatcher;
  std::unique_ptr<rdcn::SchedulePolicy> scheduler;
  {
    Scope span(&tracer, Op::RunSetup);
    dispatcher = std::make_unique<TracedDispatcher>(policy.dispatcher(), &tracer,
                                                    dispatch_op(unit.policy));
    scheduler = std::make_unique<TracedScheduler>(policy.scheduler(instance->topology()),
                                                  &tracer, select_op(unit.policy),
                                                  options.plant_select_ns);
  }
  const double mark = cpu_seconds();
  std::optional<rdcn::RunResult> run;
  {
    Scope span(&tracer, Op::SimEngineRun);
    rdcn::Engine engine(*instance, *dispatcher, *scheduler, spec.engine);
    run = engine.run();
    result.resident_peak = engine.peak_resident_slots();
  }
  result.setup_cpu_s = mark - start;
  result.sim_cpu_s = cpu_seconds() - mark;
  result.wall_s = static_cast<double>(wall_ns() - wall_start) * 1e-9;
  result.out = batch_output(*instance, *run);
  result.error = check_batch(*instance, *run);
  return result;
}

/// StreamRunner::run_repetition re-driven over Engine's public step API
/// with every layer call inside a span. It must reproduce the runner's
/// simulated output bit for bit (the caller compares), so each statement
/// below mirrors the runner's drive loop; telemetry windows are not
/// rebuilt because no compared output depends on them.
UnitRun stream_unit_traced(const Workload& workload, const Unit& unit,
                           const UnitOptions& options, Tracer& tracer) {
  rdcn::StreamSpec spec = workload.stream;
  spec.engine.audit = options.audit;
  const rdcn::PolicyFactory policy = rdcn::named_policy(unit.policy);
  const std::uint64_t rep_seed = unit.seed;
  const bool staged = !spec.stages.empty();
  Tracer* tr = &tracer;

  UnitRun result;
  SimOutput& out = result.out;
  const std::uint64_t wall_start = wall_ns();
  const double start = cpu_seconds();

  rdcn::Topology topology;
  {
    Scope span(tr, Op::NetBuild);
    topology = rdcn::make_topology(spec.topology, rep_seed);
  }
  rdcn::TrafficConfig traffic = spec.traffic;
  traffic.shape.seed = rep_seed;
  traffic.speedup_rounds = spec.engine.speedup_rounds;
  double target_rate = 0.0;
  {
    Scope span(tr, Op::TrafficCalibrate);
    target_rate = rdcn::calibrate_rate(topology, traffic);
  }
  std::unique_ptr<rdcn::TrafficSource> source;
  rdcn::Time max_steps = spec.max_steps;
  if (max_steps == 0) {
    const auto total = static_cast<double>(spec.warmup_packets + spec.measure_packets);
    max_steps =
        static_cast<rdcn::Time>(spec.step_cap_factor * total / std::max(target_rate, 1e-9)) +
        1024;
  }

  const auto measure_begin = static_cast<rdcn::PacketIndex>(spec.warmup_packets);
  const auto measure_end =
      static_cast<rdcn::PacketIndex>(spec.warmup_packets + spec.measure_packets);
  std::uint64_t measured = 0;
  std::uint64_t dropped_measured = 0;

  std::vector<rdcn::Time> stage_start;
  std::vector<std::uint64_t> stage_offered(spec.stages.size(), 0);
  std::vector<std::uint64_t> stage_served(spec.stages.size(), 0);
  std::vector<std::uint64_t> stage_dropped(spec.stages.size(), 0);
  std::size_t cur_stage = 0;
  std::size_t next_stage = 0;
  {
    rdcn::Time t = 1;
    for (const rdcn::StageSpec& s : spec.stages) {
      stage_start.push_back(t);
      t += s.duration;
    }
  }
  rdcn::PacketIndex next_id = 0;

  const auto sink = [&](rdcn::RetiredPacket&& retired) {
    Scope span(tr, Op::RunSink);
    if (retired.outcome.dropped) {
      ++out.dropped;
      if (retired.id >= measure_begin && retired.id < measure_end) ++dropped_measured;
      if (staged) ++stage_dropped[cur_stage];
      return;
    }
    ++out.served;
    if (staged) ++stage_served[cur_stage];
    if (retired.id >= measure_begin && retired.id < measure_end) {
      ++measured;
      out.latency.add(retired.outcome.completion - retired.arrival);
    }
  };

  std::unique_ptr<rdcn::DispatchPolicy> dispatcher;
  std::unique_ptr<rdcn::SchedulePolicy> scheduler;
  std::optional<rdcn::Engine> engine;
  {
    Scope span(tr, Op::RunSetup);
    if (!staged) source = std::make_unique<TracedSource>(rdcn::make_source(topology, traffic), tr);
    dispatcher = std::make_unique<TracedDispatcher>(policy.dispatcher(), tr,
                                                    dispatch_op(unit.policy));
    scheduler = std::make_unique<TracedScheduler>(policy.scheduler(topology), tr,
                                                  select_op(unit.policy),
                                                  options.plant_select_ns);
    engine.emplace(topology, *dispatcher, *scheduler, spec.engine, sink);
  }
  const double mark = cpu_seconds();

  std::optional<rdcn::Packet> pending;
  const auto pull = [&]() {
    pending = source->next();
    if (staged && pending) pending->arrival += stage_start[cur_stage] - 1;
  };
  const auto enter_stage = [&](std::size_t k) {
    Scope span(tr, Op::RunStageEntry);
    cur_stage = k;
    const rdcn::StageSpec& sspec = spec.stages[k];
    rdcn::MutationStats stats;
    {
      Scope mutation_span(tr, Op::SimMutation);
      stats = engine->apply_mutation(sspec.mutation);
    }
    out.requeued += stats.packets_requeued;
    rdcn::TrafficConfig stage_traffic = spec.traffic;
    stage_traffic.shape.seed =
        rep_seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(k));
    stage_traffic.speedup_rounds = engine->options().speedup_rounds;
    if (sspec.rho > 0.0) stage_traffic.rho = sspec.rho;
    if (sspec.on_stay > 0.0) stage_traffic.on_stay = sspec.on_stay;
    if (sspec.off_stay > 0.0) stage_traffic.off_stay = sspec.off_stay;
    {
      Scope calibrate_span(tr, Op::TrafficCalibrate);
      rdcn::calibrate_rate(topology, stage_traffic);
    }
    source = std::make_unique<TracedSource>(rdcn::make_source(topology, stage_traffic), tr);
    pull();
  };

  if (source) pull();
  while (true) {
    while (staged && next_stage < spec.stages.size() &&
           stage_start[next_stage] <= engine->now() + 1) {
      enter_stage(next_stage);
      ++next_stage;
    }
    if (measured + dropped_measured >= spec.measure_packets) break;
    if (!pending && !engine->busy()) break;
    if (out.steps >= max_steps) {
      out.truncated = true;
      break;
    }
    Scope step_span(tr, Op::RunStep);
    const std::uint64_t sim_self_before =
        tr->op(Op::SimBeginStep).self_ns + tr->op(Op::SimFinishStep).self_ns;
    const rdcn::Time* upcoming = pending ? &pending->arrival : nullptr;
    rdcn::Time stage_bound = 0;
    if (staged && next_stage < spec.stages.size()) {
      stage_bound = stage_start[next_stage] - 1;
      if (upcoming == nullptr || stage_bound < *upcoming) upcoming = &stage_bound;
    }
    {
      Scope span(tr, Op::SimBeginStep);
      engine->begin_step(upcoming);
    }
    tr->key_step(engine->now());
    ++out.steps;
    while (pending && pending->arrival == engine->now()) {
      ++out.offered;
      if (staged) {
        ++stage_offered[cur_stage];
        pending->id = next_id;
      }
      ++next_id;
      {
        Scope span(tr, Op::SimInject);
        engine->inject(*pending);
      }
      pull();
    }
    {
      Scope span(tr, Op::SimFinishStep);
      engine->finish_step();
    }
    tr->step_self_hist().add(static_cast<std::int64_t>(
        tr->op(Op::SimBeginStep).self_ns + tr->op(Op::SimFinishStep).self_ns -
        sim_self_before));
  }
  out.total_cost = engine->aggregates().total_cost;
  result.resident_peak = engine->peak_resident_slots();
  result.setup_cpu_s = mark - start;
  result.sim_cpu_s = cpu_seconds() - mark;
  result.wall_s = static_cast<double>(wall_ns() - wall_start) * 1e-9;

  // Conservation at stop, which the runner's outcome cannot show: every
  // offered packet was served, dropped, or is still in flight.
  if (out.offered != out.served + out.dropped + engine->in_flight()) {
    result.error = "stream: offered != served + dropped + in flight at stop";
  }
  if (staged) {
    std::uint64_t offered = 0, served = 0, dropped = 0;
    for (std::size_t k = 0; k < spec.stages.size(); ++k) {
      offered += stage_offered[k];
      served += stage_served[k];
      dropped += stage_dropped[k];
    }
    if (offered != out.offered || served != out.served || dropped != out.dropped) {
      result.error = "stream: traced stage sums differ from the run totals";
    }
  }
  return result;
}

template <typename Body>
UnitRun guarded(Body&& body) {
  try {
    return body();
  } catch (const std::exception& error) {
    UnitRun result;
    result.error = std::string("exception: ") + error.what();
    return result;
  }
}

}  // namespace

std::string compare_outputs(const SimOutput& a, const SimOutput& b) {
  std::ostringstream diff;
  diff.precision(17);
  const auto field = [&](const char* name, auto x, auto y) {
    if (x != y && diff.tellp() == 0) diff << name << ": " << x << " != " << y;
  };
  field("offered", a.offered, b.offered);
  field("served", a.served, b.served);
  field("dropped", a.dropped, b.dropped);
  field("requeued", a.requeued, b.requeued);
  field("steps", a.steps, b.steps);
  field("truncated", a.truncated, b.truncated);
  field("total_cost", a.total_cost, b.total_cost);
  field("latency.count", a.latency.count(), b.latency.count());
  field("latency.mean", a.latency.mean(), b.latency.mean());
  field("latency.min", a.latency.min(), b.latency.min());
  field("latency.max", a.latency.max(), b.latency.max());
  if (diff.tellp() == 0 && !a.latency.empty()) {
    for (const double q : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
      field("latency.percentile", a.latency.percentile(q), b.latency.percentile(q));
    }
  }
  return diff.str();
}

UnitRun run_unit(const Workload& workload, const Unit& unit, const UnitOptions& options) {
  return guarded([&] {
    return workload.mode == Mode::Batch ? batch_unit(workload, unit, options)
                                        : stream_unit(workload, unit, options);
  });
}

UnitRun run_unit_traced(const Workload& workload, const Unit& unit,
                        const UnitOptions& options, Tracer& tracer) {
  return guarded([&] {
    return workload.mode == Mode::Batch ? batch_unit_traced(workload, unit, options, tracer)
                                        : stream_unit_traced(workload, unit, options, tracer);
  });
}

}  // namespace perfbench

// rdcn — command-line front end for the library.
//
// Subcommands:
//   gen   <out.inst> [--racks N] [--lasers N] [--pds N] [--density F]
//         [--max-delay D] [--fixed-dl D] [--packets N] [--rate F]
//         [--skew uniform|zipf|hotspot|permutation|incast] [--zipf F]
//         [--weights unit|uniform-int|pareto|bimodal] [--wmax N]
//         [--bursty] [--seed S]
//       Generates a workload over a two-tier pod and writes an instance file.
//   run   <in.inst> [--policy <name>] [--capacity B] [--speedup K]
//         [--reconfig D] [--reps N] [--seed S]
//       Replays an instance under a registry policy and prints the schedule
//       summary. Replays are deterministic; --reps > 1 repeats the identical
//       run to aggregate wall-clock time.
//   certify <in.inst> [--eps F]
//       Runs ALG, builds the dual witness, verifies Lemmas 1-5 and prints
//       the certified OPT lower bound and ratio.
//   show  <in.inst> [--receivers] [--width N]
//       Runs ALG and renders the schedule as an ASCII Gantt chart.
//   info  <in.inst>
//       Prints topology/workload statistics.
//   policies
//       Lists the policy registry names accepted by --policy.
//   record <out.inst> [--rho F] [--source poisson|onoff] [--packets N]
//          [--seed S] [topology/shape flags as gen]
//       Captures the first N packets of an open-loop traffic source into an
//       instance file -- a replayable arrival trace (see `stream --trace`);
//       the summary line reports the rate the source calibrated when it
//       was built.
//   stream [--policy <name>] [--rho F] [--source poisson|onoff]
//          [--trace in.inst] [--warmup N] [--packets N] [--window N]
//          [--capacity B] [--speedup K] [--reconfig D] [--seed S]
//          [--max-steps N] [--cap-factor F] [--stages stages.json]
//          [--audit] [topology/shape flags as gen]
//       Open-loop steady-state run: streams Poisson/on-off arrivals at
//       target utilization rho (or replays a recorded trace) through the
//       bounded-memory engine and prints latency percentiles, throughput
//       and backlog after the warmup cutoff. --stages drives a time-staged
//       dynamic scenario (a JSON array of stage objects -- per-stage
//       traffic overrides plus edge/rack failure injection and mid-run
//       rewiring, the suite "stages" schema); the summary then adds
//       per-stage served/dropped/requeued and time-to-drain recovery rows.
//       --audit runs the invariant auditor alongside (throws on violation).
//       --stages is incompatible with --trace: every stage draws its own
//       arrivals (a recorded trace replays under a mutation schedule
//       through the library's Engine::run(schedule), on the same stage
//       clock).
//   suite [suite.json] [--threads N] [--list] [--journal out.journal]
//         [--resume in.journal] [--isolate] [--deadline-ms F]
//         [--attempts N] [--backoff-ms F]
//       Runs a declarative suite file (topology x workload/traffic x
//       engine x policy grid, see run/suite.hpp and examples/suites/)
//       through the BatchRunner and prints one BenchReport JSON line per
//       cell. --list prints the expanded cells without running. Parse
//       errors name the offending JSON path and exit nonzero.
//       Fault tolerance (README "Fault tolerance & resume"): --journal
//       rewrites a crash-safe manifest (atomic write-temp-fsync-rename)
//       after every completed cell; --resume loads such a journal (the
//       spec travels inside it, so the positional file is optional and,
//       when given, must normalize identically), skips recorded cells and
//       prints merged output bit-identical to an uninterrupted run.
//       --isolate turns a failing cell into a structured error row
//       ("status": "failed") instead of aborting the suite; --deadline-ms
//       bounds each repetition's wall clock (cancelled cooperatively at
//       the next step boundary); --attempts N retries transient failures
//       (deadline/TransientError) with exponential backoff, same seed.
//       RDCN_SUITE_FAULT="kind@cell-substring" (test-only) injects faults
//       into matching cells: throw | transient (fires once per rep, so a
//       retry succeeds) | hang (spins until deadline cancellation) |
//       crash (SIGKILL, for the resume smoke) | sleep:MS.
//   profile [--policy <name>] [--racks N] [--packets N] [--seed S]
//           [--reps N] [--events N] [--out trace.json]
//       Runs the engine probe (sim/probe.hpp) over a BM_AlgEndToEnd-shaped
//       batch run (bench/bench_scalability.cpp's generation, default
//       64 racks / 2000 packets / seed 5), prints the per-phase time
//       breakdown and the counter/gauge registry, and writes the raw span
//       ring as Chrome trace-event JSON (load at ui.perfetto.dev or
//       chrome://tracing). The written trace is re-read through the strict
//       parser and sanity-checked; any violation exits nonzero.
//
// Instance files use the rdcn-instance v1 text format (Instance::save).
// All execution routes through the run/ subsystem (the same ScenarioRunner
// and StreamRunner the benches use).

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "core/charging.hpp"
#include "core/dual_witness.hpp"
#include "run/scenario.hpp"
#include "run/stream.hpp"
#include "run/suite.hpp"
#include "sim/gantt.hpp"
#include "sim/metrics.hpp"
#include "util/enum_names.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using namespace rdcn;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: rdcn_cli <command> [file] [options]\n"
               "commands: gen run certify show info policies record stream suite profile\n"
               "  gen/run/certify/show/info/record take an instance file;\n"
               "  suite takes a suite JSON file (see examples/suites/), or\n"
               "    just --resume <journal> (the spec travels in the journal);\n"
               "  stream, policies and profile take options only.\n"
               "run with no options for defaults; see source header for flags\n");
  std::exit(2);
}

struct Args {
  std::string command;
  std::string file;
  std::vector<std::string> rest;

  bool has(const std::string& flag) const {
    for (const auto& a : rest) {
      if (a == flag) return true;
    }
    return false;
  }
  std::string value(const std::string& flag, const std::string& fallback) const {
    for (std::size_t i = 0; i + 1 < rest.size(); ++i) {
      if (rest[i] == flag) return rest[i + 1];
    }
    return fallback;
  }
  double number(const std::string& flag, double fallback) const {
    const std::string v = value(flag, "");
    return v.empty() ? fallback : std::strtod(v.c_str(), nullptr);
  }
};

Instance load_instance(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  return Instance::load(in);
}

/// Scenario replaying a saved instance file (every repetition identical).
ScenarioSpec replay_scenario(const std::string& path) {
  ScenarioSpec spec;
  spec.name = path;
  auto shared = std::make_shared<Instance>(load_instance(path));
  spec.make_instance = [shared](std::uint64_t) { return *shared; };
  return spec;
}

/// Resolves --policy against the registry; unknown names print the list
/// and exit nonzero.
PolicyFactory policy_from(const Args& args) {
  const std::string name = args.value("--policy", "alg");
  try {
    return named_policy(name);
  } catch (const std::invalid_argument&) {
    std::string known;
    for (const std::string& entry : policy_names()) known += " " + entry;
    std::fprintf(stderr, "unknown policy '%s'; known:%s\n", name.c_str(), known.c_str());
    std::exit(2);
  }
}

void fill_two_tier(const Args& args, TwoTierConfig& net) {
  net.racks = static_cast<NodeIndex>(args.number("--racks", 8));
  net.lasers_per_rack = static_cast<NodeIndex>(args.number("--lasers", 2));
  net.photodetectors_per_rack = static_cast<NodeIndex>(args.number("--pds", 2));
  net.density = args.number("--density", 0.6);
  net.max_edge_delay = static_cast<Delay>(args.number("--max-delay", 2));
  net.fixed_link_delay = static_cast<Delay>(args.number("--fixed-dl", 0));
}

/// Resolves an enum-valued flag through its name table; unknown names
/// print the known ones and exit nonzero.
template <typename Table, typename Enum>
Enum enum_flag(const Args& args, const std::string& flag, const Table& names,
               Enum fallback) {
  const std::string name = args.value(flag, name_of(names, fallback));
  Enum value = fallback;
  if (!value_of(names, name, value)) {
    std::fprintf(stderr, "unknown %s '%s'; known:%s\n", flag.c_str(), name.c_str(),
                 known_names(names).c_str());
    std::exit(2);
  }
  return value;
}

void fill_shape(const Args& args, WorkloadConfig& shape) {
  shape.skew = enum_flag(args, "--skew", kPairSkewNames, PairSkew::Zipf);
  shape.zipf_exponent = args.number("--zipf", 1.2);
  shape.weights = enum_flag(args, "--weights", kWeightDistNames, WeightDist::UniformInt);
  shape.weight_max = static_cast<std::int64_t>(args.number("--wmax", 10));
}

TrafficConfig traffic_from(const Args& args) {
  TrafficConfig traffic;
  traffic.process =
      enum_flag(args, "--source", kArrivalProcessNames, ArrivalProcess::Poisson);
  traffic.rho = args.number("--rho", 0.8);
  fill_shape(args, traffic.shape);
  traffic.on_stay = args.number("--on-stay", 0.9);
  traffic.off_stay = args.number("--off-stay", 0.7);
  return traffic;
}

int cmd_gen(const Args& args) {
  ScenarioSpec spec;
  spec.name = args.file;
  fill_two_tier(args, spec.topology.two_tier);

  auto& traffic = spec.workload;
  traffic.num_packets = static_cast<std::size_t>(args.number("--packets", 200));
  traffic.arrival_rate = args.number("--rate", 4.0);
  fill_shape(args, traffic);
  traffic.bursty = args.has("--bursty");

  const auto seed = static_cast<std::uint64_t>(args.number("--seed", 1));
  spec.base_seed = seed;
  const Instance instance = ScenarioRunner(spec).instance(seed);
  std::ofstream out(args.file);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", args.file.c_str());
    return 1;
  }
  instance.save(out);
  std::printf("wrote %zu packets / %d racks / %d edges to %s\n", instance.num_packets(),
              instance.topology().num_sources(), instance.topology().num_edges(),
              args.file.c_str());
  return 0;
}

int cmd_run(const Args& args) {
  const PolicyFactory policy = policy_from(args);

  ScenarioSpec spec = replay_scenario(args.file);
  spec.engine.endpoint_capacity = static_cast<int>(args.number("--capacity", 1));
  spec.engine.speedup_rounds = static_cast<int>(args.number("--speedup", 1));
  spec.engine.reconfig_delay = static_cast<Delay>(args.number("--reconfig", 0));
  spec.base_seed = static_cast<std::uint64_t>(args.number("--seed", 1));
  spec.repetitions = static_cast<std::size_t>(args.number("--reps", 1));
  const ScenarioRunner runner(spec);

  const Instance instance = runner.instance(spec.base_seed);
  const RunResult run = runner.run_once(policy, instance);
  const ScheduleSummary summary = summarize(instance, run);

  Table table({"metric", "value"});
  table.add_row({"policy", policy.name});
  table.add_row({"total weighted latency", Table::fmt(summary.total_cost, 3)});
  table.add_row({"mean weighted latency", Table::fmt(summary.mean_weighted_latency, 3)});
  table.add_row({"max latency", Table::fmt(summary.max_latency, 0)});
  table.add_row({"makespan", Table::fmt(static_cast<std::int64_t>(summary.makespan))});
  table.add_row({"reconfigurable share",
                 Table::fmt(100.0 * summary.reconfig_fraction, 1) + "%"});
  table.add_row({"steps simulated",
                 Table::fmt(static_cast<std::int64_t>(run.steps_simulated))});
  if (spec.repetitions > 1) {
    // Replaying a saved instance is bit-identical per repetition (same
    // file, deterministic policies), so repeats only measure timing.
    const ScenarioResult result = runner.run(policy);
    table.add_row({"identical replays", std::to_string(spec.repetitions)});
    table.add_row({"mean wall ms / replay", Table::fmt(result.wall_ms.mean(), 3)});
  }
  table.print("run summary: " + args.file);
  return 0;
}

int cmd_certify(const Args& args) {
  ScenarioSpec spec = replay_scenario(args.file);
  spec.engine.record_trace = true;
  const ScenarioRunner runner(spec);
  const Instance instance = runner.instance(1);
  const double eps = args.number("--eps", 1.0);
  const RunResult run = runner.run_once(alg_policy(), instance);
  const DualWitness witness = build_dual_witness(instance, run);
  const ChargingAudit audit = audit_charging(instance, run);
  const DualFeasibilityReport feasibility = check_dual_feasibility(instance, witness);

  Table table({"certificate", "value", "requirement", "status"});
  table.add_row({"ALG cost", Table::fmt(run.total_cost, 3), "", ""});
  table.add_row({"Lemma 1 ledger gap", Table::fmt(lemma1_gap(witness, run), 9), "= 0",
                 lemma1_gap(witness, run) < 1e-6 ? "PASS" : "FAIL"});
  table.add_row({"Lemma 2 max overcharge", Table::fmt(audit.max_overcharge, 9), "<= 0",
                 audit.max_overcharge <= 1e-7 ? "PASS" : "FAIL"});
  table.add_row({"Lemma 4 violation factor", Table::fmt(feasibility.max_violation_ratio, 4),
                 "< 2", feasibility.max_violation_ratio < 2.0 ? "PASS" : "FAIL"});
  table.add_row({"Lemma 5 halved feasible", feasibility.halved_feasible ? "yes" : "no",
                 "yes", feasibility.halved_feasible ? "PASS" : "FAIL"});
  const double lower = witness.lower_bound(eps);
  table.add_row({"certified OPT(1/(2+eps)) >=", Table::fmt(lower, 3), "", ""});
  table.add_row({"Theorem 1 bound", Table::fmt(2.0 * (2.0 / eps + 1.0), 2) + "x", "", ""});
  if (lower > 0) {
    table.add_row({"measured ratio", Table::fmt(run.total_cost / lower, 3) + "x",
                   "<= bound",
                   run.total_cost / lower <= 2.0 * (2.0 / eps + 1.0) ? "PASS" : "FAIL"});
  }
  table.print("dual-fitting certificate (eps = " + Table::fmt(eps, 2) + ")");
  return 0;
}

int cmd_show(const Args& args) {
  ScenarioSpec spec = replay_scenario(args.file);
  spec.engine.record_trace = true;
  const ScenarioRunner runner(spec);
  const Instance instance = runner.instance(1);
  const RunResult run = runner.run_once(alg_policy(), instance);
  GanttOptions options;
  options.show_receivers = args.has("--receivers");
  options.max_width = static_cast<std::size_t>(args.number("--width", 160));
  std::printf("%s", render_gantt(instance, run, options).c_str());
  std::printf("total weighted latency %.3f, makespan %lld\n", run.total_cost,
              static_cast<long long>(run.makespan));
  return 0;
}

int cmd_info(const Args& args) {
  const Instance instance = load_instance(args.file);
  const Topology& topology = instance.topology();
  double total_weight = 0.0;
  Time first = instance.num_packets() ? instance.packets().front().arrival : 0;
  Time last = instance.num_packets() ? instance.packets().back().arrival : 0;
  for (const Packet& p : instance.packets()) total_weight += p.weight;

  Table table({"property", "value"});
  table.add_row({"sources / destinations", Table::fmt(static_cast<std::int64_t>(
                                               topology.num_sources())) +
                                               " / " +
                                               Table::fmt(static_cast<std::int64_t>(
                                                   topology.num_destinations()))});
  table.add_row({"transmitters / receivers",
                 Table::fmt(static_cast<std::int64_t>(topology.num_transmitters())) + " / " +
                     Table::fmt(static_cast<std::int64_t>(topology.num_receivers()))});
  table.add_row({"reconfigurable edges",
                 Table::fmt(static_cast<std::int64_t>(topology.num_edges()))});
  table.add_row({"fixed links",
                 Table::fmt(static_cast<std::uint64_t>(topology.fixed_links().size()))});
  table.add_row({"packets", Table::fmt(static_cast<std::uint64_t>(instance.num_packets()))});
  table.add_row({"total weight", Table::fmt(total_weight, 1)});
  table.add_row({"arrival span", Table::fmt(static_cast<std::int64_t>(first)) + " .. " +
                                     Table::fmt(static_cast<std::int64_t>(last))});
  table.add_row({"integer weights", instance.has_integer_weights() ? "yes" : "no"});
  table.add_row({"trivial cost bound", Table::fmt(instance.ideal_cost(), 2)});
  table.add_row({"validation", instance.validate().empty() ? "ok" : instance.validate()});
  table.print("instance info: " + args.file);
  return 0;
}

int cmd_policies() {
  for (const std::string& name : policy_names()) std::printf("%s\n", name.c_str());
  return 0;
}

int cmd_record(const Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.number("--seed", 1));
  // Same wiring rule as `stream` without --trace: a recorded trace and a
  // live stream with identical flags see the identical network.
  TopologySpec tspec;
  fill_two_tier(args, tspec.two_tier);
  const Topology topology = make_topology(tspec, seed);

  TrafficConfig traffic = traffic_from(args);
  traffic.shape.seed = seed;
  const auto count = static_cast<std::size_t>(args.number("--packets", 10000));
  // The source calibrates its rate once, when it is built; the summary
  // line reports that rate.
  const auto source = make_source(topology, traffic);
  Instance instance(topology, record_arrivals(*source, count));
  std::ofstream out(args.file);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", args.file.c_str());
    return 1;
  }
  instance.save(out);
  const Time span = instance.num_packets() ? instance.packets().back().arrival : 0;
  std::printf(
      "recorded %zu packets over %lld steps (target rho %.2f, lambda %.3f/step) to %s\n",
      instance.num_packets(), static_cast<long long>(span), traffic.rho, source->rate(),
      args.file.c_str());
  return 0;
}

int cmd_stream(const Args& args) {
  const PolicyFactory policy = policy_from(args);

  StreamSpec spec;
  spec.engine.endpoint_capacity = static_cast<int>(args.number("--capacity", 1));
  spec.engine.speedup_rounds = static_cast<int>(args.number("--speedup", 1));
  spec.engine.reconfig_delay = static_cast<Delay>(args.number("--reconfig", 0));
  spec.base_seed = static_cast<std::uint64_t>(args.number("--seed", 1));
  spec.warmup_packets = static_cast<std::size_t>(args.number("--warmup", 2000));
  spec.measure_packets = static_cast<std::size_t>(args.number("--packets", 20000));
  spec.telemetry_window = static_cast<Time>(args.number("--window", 256));
  spec.max_steps = static_cast<Time>(args.number("--max-steps", 0));
  spec.step_cap_factor = args.number("--cap-factor", 8.0);

  spec.engine.audit = args.has("--audit");

  const std::string trace = args.value("--trace", "");
  const std::string stages = args.value("--stages", "");
  if (!stages.empty() && !trace.empty()) {
    std::fprintf(stderr, "--stages is incompatible with --trace (every stage draws its "
                         "own arrivals; replay a trace under stage mutations through "
                         "Engine::run(schedule))\n");
    return 2;
  }
  if (!trace.empty()) {
    spec.name = trace;
    auto shared = std::make_shared<Instance>(load_instance(trace));
    spec.make_trace = [shared](std::uint64_t) { return *shared; };
  } else {
    spec.name = "stream";
    fill_two_tier(args, spec.topology.two_tier);
    spec.traffic = traffic_from(args);
    if (!stages.empty()) {
      try {
        spec.stages = load_stages_file(stages);
      } catch (const SuiteError& error) {
        std::fprintf(stderr, "stages error: %s\n", error.what());
        return 1;
      }
    }
  }

  const StreamRunner runner(spec);
  const StreamRepOutcome out = runner.run_repetition(policy, spec.base_seed);

  Table table({"metric", "value"});
  table.add_row({"policy", policy.name});
  table.add_row({"source", trace.empty() ? to_string(spec.traffic.process) : "trace"});
  if (trace.empty()) {
    table.add_row({"target rho / lambda", Table::fmt(spec.traffic.rho, 2) + " / " +
                                              Table::fmt(out.target_rate, 3) + " pkt/step"});
  }
  table.add_row({"measured rho", Table::fmt(out.measured_rho, 3)});
  table.add_row({"offered / served / measured",
                 Table::fmt(out.offered) + " / " + Table::fmt(out.served) + " / " +
                     Table::fmt(out.measured)});
  if (out.measured > 0) {
    table.add_row({"latency p50 / p95 / p99 / p999",
                   Table::fmt(out.latency.p50()) + " / " + Table::fmt(out.latency.p95()) +
                       " / " + Table::fmt(out.latency.p99()) + " / " +
                       Table::fmt(out.latency.p999())});
    table.add_row({"mean latency", Table::fmt(out.mean_latency, 2)});
  } else {
    table.add_row({"latency", "n/a (no packet retired inside the measure range;"
                              " check --warmup vs the trace length)"});
  }
  table.add_row({"throughput", Table::fmt(out.throughput, 3) + " pkt/step"});
  table.add_row({"backlog mean / peak", Table::fmt(out.mean_backlog, 1) + " / " +
                                            Table::fmt(out.peak_backlog)});
  table.add_row({"steps", Table::fmt(static_cast<std::int64_t>(out.steps))});
  table.add_row({"peak resident slots",
                 Table::fmt(static_cast<std::uint64_t>(out.peak_resident))});
  table.add_row({"truncated", out.truncated ? "YES (hit step cap)" : "no"});
  if (!spec.stages.empty()) {
    table.add_row({"dropped / requeued",
                   Table::fmt(out.dropped) + " / " + Table::fmt(out.requeued)});
    for (std::size_t k = 0; k < out.stages.size(); ++k) {
      const StageOutcome& stage = out.stages[k];
      std::string row = "T=" + Table::fmt(static_cast<std::int64_t>(stage.start)) +
                        ", offered " + Table::fmt(stage.offered) + ", served " +
                        Table::fmt(stage.served) + ", dropped " +
                        Table::fmt(stage.dropped) + ", requeued " +
                        Table::fmt(stage.requeued);
      if (stage.edges_killed != 0 || stage.edges_restored != 0) {
        row += ", edges -" + Table::fmt(static_cast<std::uint64_t>(stage.edges_killed)) +
               "/+" + Table::fmt(static_cast<std::uint64_t>(stage.edges_restored));
      }
      row += ", drain " + (stage.drain_steps < 0
                               ? std::string("n/a")
                               : Table::fmt(static_cast<std::int64_t>(stage.drain_steps)));
      table.add_row({"stage " + std::to_string(k), row});
    }
  }
  table.add_row({"wall ms", Table::fmt(out.wall_ms, 1)});
  table.print("steady-state stream: " + spec.name);
  return 0;
}

/// Validates a written Chrome trace with the strict parser: the document
/// must round-trip, carry a non-empty traceEvents array of complete
/// events, and have monotone (sorted) timestamps. Returns an error
/// message, empty on success.
std::string validate_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "cannot re-open " + path;
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  json::Value document;
  try {
    document = json::parse(text);
  } catch (const json::ParseError& error) {
    return std::string("strict parse failed: ") + error.what();
  }
  const json::Value* events = document.find("traceEvents");
  if (events == nullptr || !events->is_array()) return "missing traceEvents array";
  if (events->as_array().empty()) return "traceEvents is empty";
  double last_ts = -1.0;
  for (const json::Value& event : events->as_array()) {
    const json::Value* ph = event.find("ph");
    const json::Value* ts = event.find("ts");
    const json::Value* dur = event.find("dur");
    const json::Value* name = event.find("name");
    if (ph == nullptr || !ph->is_string() || ph->as_string() != "X") {
      return "event is not a complete event (ph != \"X\")";
    }
    if (name == nullptr || !name->is_string()) return "event without a name";
    if (ts == nullptr || !ts->is_number() || dur == nullptr || !dur->is_number()) {
      return "event without numeric ts/dur";
    }
    if (ts->as_number() < last_ts) return "timestamps are not monotone";
    last_ts = ts->as_number();
  }
  return "";
}

int cmd_profile(const Args& args) {
  const PolicyFactory policy = policy_from(args);
  const auto racks = static_cast<NodeIndex>(args.number("--racks", 64));
  const auto packets = static_cast<std::size_t>(args.number("--packets", 2000));
  const auto seed = static_cast<std::uint64_t>(args.number("--seed", 5));
  const auto reps = std::max<std::size_t>(1, static_cast<std::size_t>(args.number("--reps", 1)));
  const auto events = static_cast<std::size_t>(args.number("--events", 1 << 16));
  const std::string out_path = args.value("--out", "profile_trace.json");

  // BM_AlgEndToEnd's exact instance generation (bench/bench_scalability),
  // so the phase shares speak to the committed BENCH_*.json trajectory.
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
  const Instance instance = generate_workload(topology, traffic);

  EngineOptions options;
  options.probe.enabled = true;
  options.probe.event_capacity = events;

  ProbeReport merged;
  std::string trace_json;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    auto dispatcher = policy.dispatcher();
    auto scheduler = policy.scheduler(instance.topology());
    Engine engine(instance, *dispatcher, *scheduler, options);
    const RunResult run = engine.run();
    merge_report(merged, run.probe);
    // The engine outlives run(): export the last repetition's span ring.
    if (rep + 1 == reps) trace_json = engine.probe()->chrome_trace_json(1);
  }

  const double wall_ms = static_cast<double>(merged.wall_ns) / 1e6;
  const double instr_ms = static_cast<double>(merged.instrumented_ns()) / 1e6;
  Table phases({"phase", "calls", "self ms", "total ms", "share of wall"});
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    const double self_ms = static_cast<double>(merged.phase_self_ns[i]) / 1e6;
    const double total_ms = static_cast<double>(merged.phase_total_ns[i]) / 1e6;
    phases.add_row({to_string(static_cast<Phase>(i)),
                    Table::fmt(static_cast<std::int64_t>(merged.phase_calls[i])),
                    Table::fmt(self_ms, 3), Table::fmt(total_ms, 3),
                    Table::fmt(100.0 * self_ms / wall_ms, 1) + "%"});
  }
  phases.add_row({"(instrumented)", "", Table::fmt(instr_ms, 3), "",
                  Table::fmt(100.0 * instr_ms / wall_ms, 1) + "%"});
  phases.print("per-phase breakdown: " + policy.name + " " + std::to_string(racks) +
               " racks x " + std::to_string(packets) + " packets, " +
               std::to_string(reps) + " rep(s), wall " + Table::fmt(wall_ms, 1) + " ms");

  Table registry({"counter / gauge", "value", "max"});
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    registry.add_row({to_string(static_cast<Counter>(i)),
                      Table::fmt(static_cast<std::int64_t>(merged.counters[i])), ""});
  }
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    registry.add_row({to_string(static_cast<Gauge>(i)),
                      Table::fmt(static_cast<std::int64_t>(merged.gauge_last[i])),
                      Table::fmt(static_cast<std::int64_t>(merged.gauge_max[i]))});
  }
  registry.print("counter / gauge registry (gauges: last, max)");

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << trace_json << "\n";
  out.close();
  const std::string error = validate_trace_file(out_path);
  if (!error.empty()) {
    std::fprintf(stderr, "trace validation FAILED: %s\n", error.c_str());
    return 1;
  }
  std::printf("wrote Chrome trace to %s (validated; load at ui.perfetto.dev)\n",
              out_path.c_str());
  return 0;
}

/// Test-only fault injection, from RDCN_SUITE_FAULT="kind@cell-substring".
/// Kinds: throw (deterministic failure, every attempt), transient (fires
/// once per (cell, repetition), so a retry budget >= 2 recovers
/// bit-identically), hang (spins until the deadline watchdog cancels the
/// repetition; hangs forever without --deadline-ms, which is the point),
/// crash (raise(SIGKILL) -- the resume smoke's mid-flight kill), sleep:MS
/// (slows matching cells down so a kill lands mid-suite deterministically).
FaultHook fault_hook_from_env() {
  const char* env = std::getenv("RDCN_SUITE_FAULT");
  if (env == nullptr || *env == '\0') return nullptr;
  const std::string spec(env);
  const std::size_t at = spec.find('@');
  if (at == std::string::npos) {
    std::fprintf(stderr, "RDCN_SUITE_FAULT must be kind@cell-substring, got '%s'\n", env);
    std::exit(2);
  }
  const std::string kind = spec.substr(0, at);
  const std::string needle = spec.substr(at + 1);
  double sleep_ms = 0.0;
  if (kind.rfind("sleep:", 0) == 0) {
    sleep_ms = std::strtod(kind.c_str() + 6, nullptr);
  } else if (kind != "throw" && kind != "transient" && kind != "hang" && kind != "crash") {
    std::fprintf(stderr,
                 "RDCN_SUITE_FAULT kind '%s' unknown (throw|transient|hang|crash|sleep:MS)\n",
                 kind.c_str());
    std::exit(2);
  }
  // Transient faults fire once per (cell, repetition): the shared ledger
  // below remembers what already fired, so the retried attempt succeeds.
  auto fired = std::make_shared<std::set<std::pair<std::string, std::size_t>>>();
  auto fired_mutex = std::make_shared<std::mutex>();
  return [kind, needle, sleep_ms, fired, fired_mutex](
             const std::string& cell, std::size_t rep, const CancelToken* cancel) {
    if (cell.find(needle) == std::string::npos) return;
    if (kind == "throw") {
      throw std::runtime_error("injected fault in " + cell);
    }
    if (kind == "transient") {
      const std::lock_guard<std::mutex> lock(*fired_mutex);
      if (fired->insert({cell, rep}).second) {
        throw TransientError("injected transient fault in " + cell);
      }
      return;
    }
    if (kind == "crash") {
      std::raise(SIGKILL);
      return;
    }
    if (kind == "hang") {
      while (cancel == nullptr || !cancel->cancelled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      throw CancelledError("injected hang cancelled (deadline exceeded)");
    }
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(sleep_ms));
  };
}

int cmd_suite(const Args& args) {
  const std::string resume_path = args.value("--resume", "");
  const bool resuming = !resume_path.empty();
  SuiteSpec spec;
  SuiteJournal journal;
  try {
    if (resuming) {
      journal = load_suite_journal(resume_path);
      if (!args.file.empty()) {
        // Optional cross-check: a suite file given alongside --resume must
        // normalize to exactly the journal's embedded spec.
        if (suite_to_json(load_suite_file(args.file)) != journal.spec_json) {
          std::fprintf(stderr, "suite error: %s does not match the journal %s\n",
                       args.file.c_str(), resume_path.c_str());
          return 1;
        }
      }
      spec = journal.spec;
    } else {
      if (args.file.empty()) {
        std::fprintf(stderr, "suite: need a suite file (or --resume <journal>)\n");
        return 2;
      }
      spec = load_suite_file(args.file);
    }
  } catch (const SuiteError& error) {
    std::fprintf(stderr, "suite error: %s\n", error.what());
    return 1;
  }
  const SuiteRunner runner(std::move(spec));
  std::fprintf(stderr, "suite %s: %zu grid cells x %zu policies = %zu runs\n",
               runner.spec().name.c_str(), runner.grid_cells(),
               runner.spec().policies.size(), runner.cells());
  if (args.has("--list")) {
    for (const std::string& name : runner.cell_names()) std::printf("%s\n", name.c_str());
    return 0;
  }

  SuiteRunOptions options;
  options.threads = static_cast<std::size_t>(args.number("--threads", 0));
  // --resume keeps journaling to the same file unless --journal overrides.
  options.journal = args.value("--journal", resuming ? resume_path : "");
  options.policy.failure =
      args.has("--isolate") ? FailurePolicy::Isolate : FailurePolicy::FailFast;
  options.policy.deadline_ms = args.number("--deadline-ms", 0.0);
  options.policy.max_attempts = static_cast<int>(args.number("--attempts", 1));
  options.policy.backoff_base_ms = args.number("--backoff-ms", 10.0);
  options.policy.fault_hook = fault_hook_from_env();

  if (resuming) {
    std::size_t recorded = 0;
    for (const std::string& row : journal.rows) recorded += row.empty() ? 0 : 1;
    std::fprintf(stderr, "resume: %zu/%zu cells already recorded in %s\n", recorded,
                 journal.rows.size(), resume_path.c_str());
  }
  const std::vector<std::string> lines =
      runner.run(options, resuming ? &journal : nullptr);
  for (const std::string& line : lines) std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  Args args;
  args.command = argv[1];
  // stream and policies take no positional file; everything else does.
  // suite's is optional (flag-shaped argv[2] means none): --resume carries
  // the spec inside the journal.
  const bool takes_file = args.command == "gen" || args.command == "run" ||
                          args.command == "certify" || args.command == "show" ||
                          args.command == "info" || args.command == "record" ||
                          args.command == "suite";
  const bool file_optional = args.command == "suite";
  int rest_from = takes_file ? 3 : 2;
  if (takes_file) {
    if (argc >= 3 && (!file_optional || argv[2][0] != '-')) {
      args.file = argv[2];
    } else if (file_optional) {
      rest_from = 2;
    } else {
      usage();
    }
  }
  for (int i = rest_from; i < argc; ++i) args.rest.emplace_back(argv[i]);

  try {
    if (args.command == "gen") return cmd_gen(args);
    if (args.command == "run") return cmd_run(args);
    if (args.command == "certify") return cmd_certify(args);
    if (args.command == "show") return cmd_show(args);
    if (args.command == "info") return cmd_info(args);
    if (args.command == "policies") return cmd_policies();
    if (args.command == "record") return cmd_record(args);
    if (args.command == "stream") return cmd_stream(args);
    if (args.command == "suite") return cmd_suite(args);
    if (args.command == "profile") return cmd_profile(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command '%s'\n", args.command.c_str());
  usage();
}

// perfbench: the repository benchmark. Runs one named workload for a fixed
// measuring time and prints its metrics, ending with one JSON line:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH] [--plant-select-us U]
//
// --trace 0 repeats the workload's units untraced through ScenarioRunner /
// StreamRunner for S seconds, each pass on the next CPU, and reports the
// end-to-end metrics (host time over all passes, scaled to the yardstick's
// nominal speed; simulated-time metrics, which repeat exactly).
// --trace 1 alternates untraced and traced passes for S seconds and reports
// the per-layer metrics plus the tracing overhead. Every run checks outputs
// (see units.cpp) and exits 1 when any check failed.
//
// --plant-select-us adds a busy-wait to every scheduling round; it exists
// for the benchmark's self-test (selftest.py) and is never timed for real.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "tracer.hpp"
#include "units.hpp"
#include "util/json.hpp"
#include "workloads.hpp"
#include "yardstick.hpp"

namespace perfbench {
namespace {

/// A unit's p99 rests on at least this many latency samples.
constexpr std::uint64_t kMinLatencySamples = 1000;
/// Fewest passes an untraced measurement takes, however long one pass
/// runs (a traced run takes at least one untraced and one traced pass).
constexpr std::size_t kMinPasses = 3;
/// Raw spans kept for the Chrome trace of the first traced pass.
constexpr std::size_t kTraceEventCapacity = 50000;
/// CPU between yardstick samples in untraced passes (each costs ~1/30 of it).
constexpr double kYardstickPeriodS = 0.1;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
  std::uint64_t plant_select_ns = 0;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH] [--plant-select-us U]\nworkloads:",
               problem.c_str());
  for (const std::string& name : workload_names()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else if (flag == "--plant-select-us") {
        args.plant_select_ns = static_cast<std::uint64_t>(std::stod(value) * 1000.0);
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
  if (args.trace != 0 && args.trace != 1) usage("--trace must be 0 or 1");
  return args;
}

/// Refuses builds whose timings would mislead: unoptimized, sanitized,
/// instrumented, or a build type other than Release/RelWithDebInfo.
std::string build_guard() {
  const std::string flags = PERFBENCH_CXX_FLAGS;
  const std::string type = PERFBENCH_BUILD_TYPE;
#if !defined(__OPTIMIZE__)
  return "unoptimized build (no -O flag)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitized build";
#endif
  for (const char* bad : {"-fsanitize", "-O0", "--coverage", "-pg", "-fprofile-arcs"}) {
    if (flags.find(bad) != std::string::npos) {
      return std::string("build flags contain ") + bad + " (" + flags + ")";
    }
  }
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type '" + type + "' is not Release or RelWithDebInfo";
  }
  return {};
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

rdcn::json::Value fingerprint() {
  rdcn::json::Object fp;
  fp.emplace_back("cpu_model", cpu_model());
  fp.emplace_back("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  fp.emplace_back("compiler", PERFBENCH_COMPILER);
  fp.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
  fp.emplace_back("cxx_flags", PERFBENCH_CXX_FLAGS);
  fp.emplace_back("git_describe", PERFBENCH_REVISION);
  return rdcn::json::Value(std::move(fp));
}

/// Peak resident memory of this program. VmHWM belongs to the process image
/// and starts afresh at exec; getrusage's ru_maxrss does not, so it would
/// report the launching process's peak when that is larger.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Moves the process to the next CPU it may run on. Passes rotate over the
/// CPUs because on a shared VM one vCPU's speed shifts with where the host
/// places it, for seconds at a time: a run that stayed on one vCPU would
/// read that vCPU's luck rather than the machine's.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
  }

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);  // best effort: a refusal only skips the move
  }

 private:
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

/// Percentile of a log-bucket histogram with the samples tied at the
/// percentile's value spread evenly over that value's bucket (the
/// grouped-data convention). The nearest-rank percentile snaps to bucket
/// bounds -- whole steps for short latencies -- which hides smaller shifts.
double grouped_percentile(const rdcn::LatencyHistogram& histogram, double q) {
  const std::uint64_t n = histogram.count();
  if (n == 0) return 0.0;
  const auto value_at = [&](std::uint64_t rank) {  // 1-based order statistic
    return histogram.percentile(100.0 * (static_cast<double>(rank) - 0.5) /
                                static_cast<double>(n));
  };
  const double rank = std::clamp(q / 100.0 * static_cast<double>(n), 0.5,
                                 static_cast<double>(n));
  const auto k = static_cast<std::uint64_t>(std::ceil(rank));
  const std::int64_t value = value_at(k);
  std::uint64_t first = 1, last = n;  // ranks tied at `value`
  for (std::uint64_t lo = 1, hi = k; lo <= hi;) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (value_at(mid) == value) {
      first = mid;
      hi = mid - 1;
    } else {
      lo = mid + 1;
    }
  }
  for (std::uint64_t lo = k, hi = n; lo <= hi;) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (value_at(mid) == value) {
      last = mid;
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  const auto [lower, upper] = rdcn::LatencyHistogram::bucket_range(
      rdcn::LatencyHistogram::bucket_index(value, histogram.sub_bucket_bits()),
      histogram.sub_bucket_bits());
  const double width = static_cast<double>(upper - lower + 1);
  return static_cast<double>(lower) - 0.5 +
         width * (rank - static_cast<double>(first - 1)) / static_cast<double>(last - first + 1);
}

std::string unit_label(const Unit& unit) {
  return unit.policy + "@" + std::to_string(unit.seed);
}

/// Units attempted and failed, with the first few failure messages.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

/// Counts a measured unit: its own checks, the latency-sample floor, and
/// equality with the unit's reference output (the first run of it).
void account(Ledger& ledger, const Unit& unit, const UnitRun& run,
             std::optional<SimOutput>& reference, const char* kind) {
  ++ledger.attempted;
  std::string error = run.error;
  if (error.empty() && run.out.latency.count() < kMinLatencySamples) {
    error = "measured " + std::to_string(run.out.latency.count()) +
            " latencies, fewer than the " + std::to_string(kMinLatencySamples) +
            " a p99 needs";
  }
  if (error.empty()) {
    if (!reference) {
      reference = run.out;
    } else if (const std::string diff = compare_outputs(*reference, run.out); !diff.empty()) {
      error = std::string(kind) + " output differs from the first untraced run: " + diff;
    }
  }
  if (!error.empty()) ledger.fail(unit_label(unit) + ": " + error);
}

struct PassStats {
  double retired = 0.0;
  double setup_cpu_s = 0.0;
  double sim_cpu_s = 0.0;
  double wall_s = 0.0;  ///< traced passes only
  double cpu_s() const { return setup_cpu_s + sim_cpu_s; }
};

/// Runs `body` at least `min_passes` times, then again while another pass
/// of the last pass's length still ends within `seconds` of wall time.
template <typename Body>
void repeat_for(double seconds, std::size_t min_passes, Body&& body) {
  const std::uint64_t start = wall_ns();
  const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
  for (std::size_t passes = 1;; ++passes) {
    const std::uint64_t pass_start = wall_ns();
    body();
    const std::uint64_t now = wall_ns();
    if (passes >= min_passes && (now - start) + (now - pass_start) > budget) return;
  }
}

struct Bench {
  Workload workload;
  std::vector<Unit> units;
  UnitOptions options;
  Ledger ledger;
  CpuRotation cpus;
  Yardstick yardstick;
  std::vector<double> yardstick_cpu;  ///< one sample per kYardstickPeriodS of CPU
  double next_yardstick_at = 0.0;
  std::vector<std::optional<SimOutput>> reference;
  std::vector<PassStats> untraced;
  std::vector<PassStats> traced;
  std::vector<UnitRun> first_traced;  ///< per unit, first traced pass
  std::optional<Tracer> first_tracer;
  Tracer all_tracer{0};

  void untraced_pass() {
    cpus.next();
    PassStats pass;
    for (std::size_t i = 0; i < units.size(); ++i) {
      sample_host_speed();
      const UnitRun run = run_unit(workload, units[i], options);
      account(ledger, units[i], run, reference[i], "repeated");
      pass.retired += static_cast<double>(run.out.retired());
      pass.setup_cpu_s += run.setup_cpu_s;
      pass.sim_cpu_s += run.sim_cpu_s;
    }
    untraced.push_back(pass);
  }

  /// Times the yardstick between units once per kYardstickPeriodS of CPU,
  /// so its samples spread over the run in proportion to the run's time.
  void sample_host_speed() {
    if (cpu_seconds() < next_yardstick_at) return;
    yardstick_cpu.push_back(yardstick.measure());
    next_yardstick_at = cpu_seconds() + kYardstickPeriodS;
  }

  /// How much slower than nominal the host ran this run's untraced passes.
  double host_slowdown() const {
    double sum = 0.0;
    for (const double s : yardstick_cpu) sum += s;
    return yardstick_cpu.empty() ? 1.0
                                 : sum / static_cast<double>(yardstick_cpu.size()) /
                                       Yardstick::kNominalCpuS;
  }

  void traced_pass() {
    cpus.next();
    const bool first = !first_tracer.has_value();
    Tracer tracer(first ? kTraceEventCapacity : 0);
    PassStats pass;
    for (std::size_t i = 0; i < units.size(); ++i) {
      UnitRun run = run_unit_traced(workload, units[i], options, tracer);
      account(ledger, units[i], run, reference[i], "traced");
      pass.retired += static_cast<double>(run.out.retired());
      pass.setup_cpu_s += run.setup_cpu_s;
      pass.sim_cpu_s += run.sim_cpu_s;
      pass.wall_s += run.wall_s;
      if (first) first_traced.push_back(std::move(run));
    }
    traced.push_back(pass);
    all_tracer.merge(tracer);
    if (first) first_tracer.emplace(std::move(tracer));
  }

  /// One short unit per policy, run plain and with EngineOptions::audit:
  /// the per-step invariant auditor must pass and change nothing.
  void audit_check(std::uint64_t seed) {
    const Workload short_workload = short_variant(workload);
    for (const Unit& unit : make_units(short_workload, seed)) {
      const UnitRun plain = run_unit(short_workload, unit, {});
      const UnitRun audited = run_unit(short_workload, unit, {.audit = true});
      ledger.attempted += 2;
      const std::string label = unit_label(unit) + " (short, audit): ";
      if (!plain.error.empty()) ledger.fail(label + plain.error);
      if (!audited.error.empty()) ledger.fail(label + audited.error);
      if (plain.error.empty() && audited.error.empty()) {
        const std::string diff = compare_outputs(plain.out, audited.out);
        if (!diff.empty()) ledger.fail(label + "audited output differs: " + diff);
      }
    }
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The eight end-to-end metrics (two of them, fail_frac and sim_drop_frac,
/// are 0 on healthy runs of most workloads and are printed but not part of
/// the JSON result; see BENCHMARK.json). Host time is CPU time scaled to the
/// yardstick's nominal speed. Throughput is the whole run's packets over its
/// simulation CPU: on a shared VM the host also slows and speeds single
/// vCPUs for seconds at a time, and the ratio of sums weighs each pass by
/// its CPU, where a median or fast quantile of pass rates jumps whenever the
/// share of fast passes crosses its rank.
std::vector<Metric> end_to_end(const Bench& bench, double rss_mib) {
  double pass_retired = 0.0, sim_cpu = 0.0;
  std::vector<double> setup;
  for (const PassStats& pass : bench.untraced) {
    pass_retired += pass.retired;
    sim_cpu += pass.sim_cpu_s;
    setup.push_back(pass.setup_cpu_s);
  }
  double cost = 0.0, retired = 0.0, dropped = 0.0, offered = 0.0, p50 = 0.0, p99 = 0.0;
  std::size_t measured_units = 0;
  for (const std::optional<SimOutput>& out : bench.reference) {
    if (!out) continue;
    cost += out->total_cost;
    retired += static_cast<double>(out->retired());
    dropped += static_cast<double>(out->dropped);
    offered += static_cast<double>(out->offered);
    p50 += grouped_percentile(out->latency, 50.0);
    p99 += grouped_percentile(out->latency, 99.0);
    ++measured_units;
  }
  const double units = std::max<double>(1.0, static_cast<double>(measured_units));
  const double slowdown = bench.host_slowdown();
  return {
      {"pkts_per_cpu_s", sim_cpu > 0 ? pass_retired / sim_cpu * slowdown : 0.0, "packets/s"},
      {"setup_s", median(setup) / slowdown, "s"},
      {"peak_rss_mib", rss_mib, "MiB"},
      {"fail_frac",
       static_cast<double>(bench.ledger.failed) /
           static_cast<double>(std::max<std::uint64_t>(1, bench.ledger.attempted)),
       "ratio"},
      {"sim_cost_per_pkt", retired > 0 ? cost / retired : 0.0, "weight-steps"},
      {"sim_p50_latency_steps", p50 / units, "steps"},
      {"sim_p99_latency_steps", p99 / units, "steps"},
      {"sim_drop_frac", offered > 0 ? dropped / offered : 0.0, "ratio"},
  };
}

std::vector<Metric> per_layer(const Bench& bench) {
  const Tracer& all = bench.all_tracer;
  const Tracer& first = *bench.first_tracer;
  double wall = 0.0, retired = 0.0;
  for (const PassStats& pass : bench.traced) {
    wall += pass.wall_s * 1e9;
    retired += pass.retired;
  }
  std::uint64_t requeued = 0, dropped = 0;
  std::size_t resident_peak = 0;
  for (const UnitRun& run : bench.first_traced) {
    requeued += run.out.requeued;
    dropped += run.out.dropped;
    resident_peak = std::max(resident_peak, run.resident_peak);
  }
  const auto self = [&](Op op) { return static_cast<double>(all.op(op).self_ns); };
  const auto share = [&](double ns) { return wall > 0 ? ns / wall : 0.0; };
  const auto per_round = [&](std::uint64_t sum) {
    return first.rounds() > 0 ? static_cast<double>(sum) / static_cast<double>(first.rounds())
                              : 0.0;
  };
  double attributed = 0.0;
  for (std::size_t i = 0; i < kNumOps; ++i) attributed += self(static_cast<Op>(i));
  const double sim_self = self(Op::SimEngineRun) + self(Op::SimBeginStep) +
                          self(Op::SimInject) + self(Op::SimFinishStep) +
                          self(Op::SimMutation);
  const double steps = static_cast<double>(all.op(Op::RunStep).calls);

  std::vector<Metric> metrics;
  const auto pcts = [&](const std::string& name, const rdcn::LatencyHistogram& hist,
                        double scale, const std::string& unit) {
    metrics.push_back({name + ".p50", grouped_percentile(hist, 50.0) * scale, unit});
    metrics.push_back({name + ".p99", grouped_percentile(hist, 99.0) * scale, unit});
  };
  const auto call = [&](const std::string& name, Op op) {
    pcts(name, all.op(op).self_hist, 1.0, "ns");
  };
  const auto call_ms = [&](const std::string& name, Op op) {
    pcts(name, all.op(op).self_hist, 1e-6, "ms");
  };

  pcts("sim.step_self_ns", all.step_self_hist(), 1.0, "ns");
  call("sim.inject_self_ns", Op::SimInject);
  metrics.push_back({"sim.self_ns_per_pkt", retired > 0 ? sim_self / retired : 0.0, "ns"});
  metrics.push_back({"sim.select_candidates_mean", per_round(first.candidates_sum()), "count"});
  metrics.push_back(
      {"sim.select_candidates_max", static_cast<double>(first.candidates_max()), "count"});
  metrics.push_back({"sim.backlog_mean", per_round(first.backlog_sum()), "count"});
  metrics.push_back({"sim.chunks_per_round", per_round(first.chunks_sum()), "count"});
  metrics.push_back({"sim.rounds", static_cast<double>(first.rounds()), "count"});
  call_ms("sim.mutation_ms", Op::SimMutation);
  metrics.push_back({"sim.requeued", static_cast<double>(requeued), "count"});
  metrics.push_back({"sim.dropped", static_cast<double>(dropped), "count"});
  metrics.push_back({"sim.resident_peak", static_cast<double>(resident_peak), "count"});
  metrics.push_back({"sim.share", share(sim_self), "ratio"});
  call("core.dispatch_ns", Op::CoreDispatch);
  metrics.push_back({"core.dispatch.share", share(self(Op::CoreDispatch)), "ratio"});
  call("core.select_ns", Op::CoreSelect);
  metrics.push_back({"core.select.share", share(self(Op::CoreSelect)), "ratio"});
  call("baseline.dispatch_ns", Op::BaselineDispatch);
  metrics.push_back({"baseline.dispatch.share", share(self(Op::BaselineDispatch)), "ratio"});
  call("baseline.maxweight.select_ns", Op::MaxWeightSelect);
  metrics.push_back(
      {"baseline.maxweight.select.share", share(self(Op::MaxWeightSelect)), "ratio"});
  call("baseline.fifo.select_ns", Op::FifoSelect);
  metrics.push_back({"baseline.fifo.select.share", share(self(Op::FifoSelect)), "ratio"});
  call("traffic.next_ns", Op::TrafficNext);
  metrics.push_back({"traffic.next.share", share(self(Op::TrafficNext)), "ratio"});
  call_ms("traffic.calibrate_ms", Op::TrafficCalibrate);
  metrics.push_back({"traffic.calibrate.share", share(self(Op::TrafficCalibrate)), "ratio"});
  call_ms("net.build_ms", Op::NetBuild);
  metrics.push_back({"net.build.share", share(self(Op::NetBuild)), "ratio"});
  call_ms("workload.generate_ms", Op::WorkloadGenerate);
  metrics.push_back({"workload.generate.share", share(self(Op::WorkloadGenerate)), "ratio"});
  call("run.sink_ns", Op::RunSink);
  metrics.push_back({"run.sink.share", share(self(Op::RunSink)), "ratio"});
  metrics.push_back(
      {"run.loop_self_ns_per_step", steps > 0 ? self(Op::RunStep) / steps : 0.0, "ns"});
  metrics.push_back(
      {"run.loop.share",
       share(self(Op::RunStep) + self(Op::RunSetup) + self(Op::RunStageEntry)), "ratio"});

  std::vector<double> untraced_cpu, traced_cpu;
  for (const PassStats& pass : bench.untraced) untraced_cpu.push_back(pass.cpu_s());
  for (const PassStats& pass : bench.traced) traced_cpu.push_back(pass.cpu_s());
  metrics.push_back(
      {"trace.overhead", median(traced_cpu) / median(untraced_cpu) - 1.0, "ratio"});
  metrics.push_back({"trace.attributed_share", share(attributed), "ratio"});
  return metrics;
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// The result line: exactly correct / attempted / failed / metrics.
std::string result_line(const Ledger& ledger, const std::vector<Metric>& metrics) {
  rdcn::json::Object values;
  for (const Metric& m : metrics) {
    rdcn::json::Object entry;
    entry.emplace_back("value", m.value);
    entry.emplace_back("unit", m.unit);
    values.emplace_back(m.name, rdcn::json::Value(std::move(entry)));
  }
  rdcn::json::Object result;
  result.emplace_back("correct", ledger.failed == 0);
  result.emplace_back("attempted", static_cast<std::int64_t>(ledger.attempted));
  result.emplace_back("failed", static_cast<std::int64_t>(ledger.failed));
  result.emplace_back("metrics", rdcn::json::Value(std::move(values)));
  return rdcn::json::dump(rdcn::json::Value(std::move(result)));
}

int run(const Args& args) {
  if (const std::string refused = build_guard(); !refused.empty()) {
    std::fprintf(stderr, "perfbench: refusing to time this build: %s\n", refused.c_str());
    return 3;
  }
  Bench bench;
  try {
    bench.workload = make_workload(args.workload);
  } catch (const std::invalid_argument& error) {
    usage(error.what());
  }
  if (bench.workload.scenario.engine.probe.enabled || bench.workload.stream.engine.probe.enabled) {
    std::fprintf(stderr, "perfbench: refusing to time a probe-enabled engine\n");
    return 3;
  }
  bench.units = make_units(bench.workload, args.seed);
  bench.reference.resize(bench.units.size());
  bench.options.plant_select_ns = args.plant_select_ns;

  std::printf("%s\n", rdcn::json::dump(fingerprint()).c_str());
  std::printf("workload %s, seed %llu, %zu units, %.0f s, trace %d\n",
              bench.workload.name.c_str(), static_cast<unsigned long long>(args.seed),
              bench.units.size(), args.seconds, args.trace);

  std::vector<Metric> result;
  if (args.trace == 0) {
    repeat_for(args.seconds, kMinPasses, [&] { bench.untraced_pass(); });
    const double rss = peak_rss_mib();
    bench.audit_check(args.seed);
    const std::vector<Metric> e2e = end_to_end(bench, rss);
    print_table("end-to-end (host time over all passes, at nominal host speed; sim_* are "
                "simulated time)",
                e2e);
    std::printf("  passes: %zu; host at %.3fx the yardstick's nominal CPU (%zu samples)\n",
                bench.untraced.size(), bench.host_slowdown(), bench.yardstick_cpu.size());
    for (const Metric& m : e2e) {
      if (m.name != "fail_frac" && m.name != "sim_drop_frac") result.push_back(m);
    }
  } else {
    // Untraced and traced passes alternate, so drift in the machine's speed
    // biases neither side of trace.overhead.
    repeat_for(args.seconds, 1, [&] {
      bench.untraced_pass();
      bench.traced_pass();
    });
    bench.audit_check(args.seed);
    result = per_layer(bench);
    print_table("per-layer (traced run)", result);
    std::printf("  passes: %zu untraced, %zu traced\n", bench.untraced.size(),
                bench.traced.size());
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << bench.first_tracer->chrome_trace_json() << '\n';
      if (!out) {
        std::fprintf(stderr, "perfbench: could not write %s\n", args.trace_out.c_str());
      } else {
        std::printf("  chrome trace: %s\n", args.trace_out.c_str());
      }
    }
  }
  for (const std::string& error : bench.ledger.errors) {
    std::printf("FAILED %s\n", error.c_str());
  }
  std::printf("%s\n", result_line(bench.ledger, result).c_str());
  std::fflush(stdout);
  return bench.ledger.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}

// EXP-P2 -- scheduling-round hot-path microbench (ISSUE 5). For every
// registry scheduler across topology-zoo shapes, inject a contended burst
// into a streaming engine and time the pure drain: no arrivals, so every
// measured step is exactly one scheduling round plus retirement -- the
// steady-state inner loop the Selection API and active-endpoint
// compression target. Each row is the MEDIAN of N timed repetitions
// (quick 3, full 5) -- medians resist scheduler-noise outliers where
// best-of rewards them -- and the repetitions must agree on
// total_cost/rounds bit-for-bit (determinism cross-check; a mismatch
// exits 3). Emits BenchReport JSON lines (ns_per_round, rounds,
// total_cost). Compare two commits' rows on one machine: absolute
// ns/round depends on the host.
//
// Outside --quick, deep-queue rows follow: a 20k-packet burst on
// bench_steady_state's 8-rack pod (2x2 ports, density 0.8, delays 1-2)
// for alg, maxweight and fifo, so the drain starts with over a hundred
// packets queued per edge -- the congested regime the 400-packet rows
// never reach. They report ns_per_round and pkts_per_cpu_s (burst size
// over the drain's process CPU time) under shape "deep_two_tier8x2", and
// a "fill" row per policy times the burst's injection (ns_per_packet:
// dispatch plus enqueue into ever deeper queues). Two bursts run: weights
// drawn uniformly from [0.5, 8) ("continuous": every chunk weight
// distinct) and integer weights 1-10 ("integer": few distinct chunk
// weights, as every benchmark workload draws).
//
//   bench_hotpath [--quick] [--phases]
//
//   --quick    fewer repetitions, crossbar shape only, no deep-queue rows
//              (tools/check.sh's smoke subset; same burst size, so its
//              rows carry the same keys as the full run's)
//   --phases   additionally run probe-enabled drains and emit one row per
//              round phase (params gain "phase"; metric phase_ns_per_round
//              = phase self-time / rounds), deep-queue rows included. The
//              rows above stay probe-OFF.
//              The probed drain must reproduce the probe-off
//              total_cost/rounds bit-for-bit (the observability layer may
//              not perturb the schedule); a divergence exits 3.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/builders.hpp"
#include "run/policies.hpp"
#include "sim/engine.hpp"
#include "sim/probe.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::bench;

struct Shape {
  const char* name;
  Topology topology;
};

std::vector<Shape> zoo_shapes(bool quick) {
  std::vector<Shape> shapes;
  shapes.push_back({"crossbar16", build_crossbar(16)});
  if (quick) return shapes;
  {
    TwoTierConfig net;
    net.racks = 12;
    net.lasers_per_rack = 2;
    net.photodetectors_per_rack = 2;
    net.density = 0.5;
    net.max_edge_delay = 3;
    Rng rng(7);
    shapes.push_back({"two_tier12x2", build_two_tier(net, rng)});
  }
  {
    ExpanderConfig net;
    net.racks = 16;
    net.degree = 3;
    net.lasers_per_rack = 2;
    net.photodetectors_per_rack = 2;
    net.max_edge_delay = 2;
    Rng rng(7);
    shapes.push_back({"expander16d3", build_expander(net, rng)});
  }
  return shapes;
}

/// bench_steady_state's pod: past its knee the backlog reaches thousands
/// of packets on 178 edges.
Topology deep_pod() {
  TwoTierConfig net;
  net.racks = 8;
  net.lasers_per_rack = 2;
  net.photodetectors_per_rack = 2;
  net.density = 0.8;
  net.max_edge_delay = 2;
  Rng rng(7);
  return build_two_tier(net, rng);
}

std::vector<Packet> burst(const Topology& topology, std::size_t count, std::uint64_t seed,
                          bool integer_weights = false) {
  Rng rng(seed);
  std::vector<Packet> packets;
  packets.reserve(count);
  while (packets.size() < count) {
    Packet p;
    p.id = static_cast<PacketIndex>(packets.size());
    p.arrival = 1;
    p.weight = integer_weights ? static_cast<double>(rng.next_int(1, 10))
                               : rng.next_double(0.5, 8.0);
    p.source =
        static_cast<NodeIndex>(rng.next_below(static_cast<std::uint64_t>(topology.num_sources())));
    p.destination = static_cast<NodeIndex>(
        rng.next_below(static_cast<std::uint64_t>(topology.num_destinations())));
    if (!topology.routable(p.source, p.destination)) continue;
    packets.push_back(p);
  }
  return packets;
}

struct DrainResult {
  double fill_ns_per_packet = 0.0;  ///< the burst's injection, per packet
  double ns_per_round = 0.0;
  double wall_ms = 0.0;
  double cpu_s = 0.0;  ///< process CPU time of the drain
  std::int64_t rounds = 0;
  double total_cost = 0.0;
  ProbeReport probe;  ///< populated only by probed drains
};

DrainResult drain_once(const Topology& topology, const PolicyFactory& policy,
                       const std::vector<Packet>& packets, bool probed = false) {
  auto dispatcher = policy.dispatcher();
  auto scheduler = policy.scheduler(topology);
  EngineOptions options;
  options.probe.enabled = probed;  // aggregates only: no event ring
  Engine engine(topology, *dispatcher, *scheduler, options, [](RetiredPacket&&) {});
  const Time arrival = 1;
  engine.begin_step(&arrival);
  const auto fill_start = std::chrono::steady_clock::now();
  for (const Packet& p : packets) engine.inject(p);
  const auto fill = std::chrono::steady_clock::now() - fill_start;
  engine.finish_step();

  const std::clock_t cpu_start = std::clock();
  const auto start = std::chrono::steady_clock::now();
  std::int64_t rounds = 0;
  while (engine.busy()) {
    engine.begin_step(nullptr);
    engine.finish_step();
    ++rounds;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  DrainResult result;
  result.fill_ns_per_packet =
      std::chrono::duration_cast<std::chrono::duration<double, std::nano>>(fill).count() /
      static_cast<double>(std::max<std::size_t>(packets.size(), 1));
  result.cpu_s = static_cast<double>(std::clock() - cpu_start) / CLOCKS_PER_SEC;
  result.rounds = rounds;
  result.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(elapsed).count();
  result.ns_per_round =
      rounds > 0 ? std::chrono::duration_cast<std::chrono::duration<double, std::nano>>(elapsed)
                           .count() /
                       static_cast<double>(rounds)
                 : 0.0;
  result.total_cost = engine.aggregates().total_cost;
  if (engine.probe() != nullptr) result.probe = engine.probe()->report();
  return result;
}

/// Median (by ns_per_round) of `repetitions` probe-off drains, carrying
/// the median fill time of the same repetitions. The repetitions replay
/// identical engine state, so schedule-derived quantities must agree
/// bit-for-bit; nullopt flags a mismatch.
std::optional<DrainResult> median_drain(const Topology& topology, const PolicyFactory& policy,
                                        const std::vector<Packet>& packets, int repetitions) {
  std::vector<DrainResult> reps;
  reps.reserve(static_cast<std::size_t>(repetitions));
  std::vector<double> fills;
  for (int rep = 0; rep < repetitions; ++rep) {
    reps.push_back(drain_once(topology, policy, packets));
    fills.push_back(reps.back().fill_ns_per_packet);
    if (reps.back().total_cost != reps.front().total_cost ||
        reps.back().rounds != reps.front().rounds) {
      return std::nullopt;
    }
  }
  std::sort(reps.begin(), reps.end(), [](const DrainResult& a, const DrainResult& b) {
    return a.ns_per_round < b.ns_per_round;
  });
  std::sort(fills.begin(), fills.end());
  DrainResult median = reps[reps.size() / 2];
  median.fill_ns_per_packet = fills[fills.size() / 2];
  return median;
}

/// --phases: separate probe-ON drains (the timed rows stay probe-OFF) and
/// one row per round phase from their median. The probed drains double
/// as a schedule-invariance check: each must reproduce the probe-off
/// total_cost/rounds, or the probe perturbed the engine (returns false).
bool add_phase_rows(BenchReport& report, Table& phase_table, const char* shape,
                    const Topology& topology, const char* name, const PolicyFactory& policy,
                    const std::vector<Packet>& load, const DrainResult& median,
                    int repetitions) {
  std::vector<DrainResult> probed;
  probed.reserve(static_cast<std::size_t>(repetitions));
  for (int rep = 0; rep < repetitions; ++rep) {
    probed.push_back(drain_once(topology, policy, load, /*probed=*/true));
    if (probed.back().total_cost != median.total_cost ||
        probed.back().rounds != median.rounds) {
      std::fprintf(stderr, "bench_hotpath: %s/%s probe-on drain diverged from probe-off\n",
                   shape, name);
      return false;
    }
  }
  std::sort(probed.begin(), probed.end(), [](const DrainResult& a, const DrainResult& b) {
    return a.ns_per_round < b.ns_per_round;
  });
  const DrainResult& probed_median = probed[probed.size() / 2];
  const double rounds_d = static_cast<double>(probed_median.rounds);
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    const char* phase_name = to_string(static_cast<Phase>(p));
    const double self_ns = static_cast<double>(probed_median.probe.phase_self_ns[p]);
    const double per_round = rounds_d > 0.0 ? self_ns / rounds_d : 0.0;
    const double share = probed_median.probe.wall_ns > 0
                             ? self_ns / static_cast<double>(probed_median.probe.wall_ns)
                             : 0.0;
    report.add(name, probed_median.total_cost, probed_median.wall_ms)
        .param("shape", std::string(shape))
        .param("packets", static_cast<std::int64_t>(load.size()))
        .param("phase", std::string(phase_name))
        .value("phase_ns_per_round", per_round)
        .value("phase_share", share);
    phase_table.add_row({shape, name, phase_name, Table::fmt(per_round, 1),
                         Table::fmt(share * 100.0, 1) + "%"});
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool phases = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--phases") == 0) {
      phases = true;
    } else {
      std::fprintf(stderr, "usage: bench_hotpath [--quick] [--phases]\n");
      return 2;
    }
  }
  // --quick trims shapes and repetitions but keeps the burst size, so its
  // rows carry the same (bench, name, params) keys as the full run's.
  const std::size_t packets = 400;
  const int repetitions = quick ? 3 : 5;  // median-of-N; N >= 3 even in CI
  const std::vector<const char*> policies = {"alg",   "maxweight", "islip",
                                             "rotor", "random",    "fifo"};

  BenchReport report("hotpath");
  Table table({"shape", "policy", "rounds", "ns/round", "total cost"});
  Table phase_table({"shape", "policy", "phase", "ns/round", "share"});
  for (const Shape& shape : zoo_shapes(quick)) {
    const std::vector<Packet> load = burst(shape.topology, packets, 11);
    for (const char* name : policies) {
      const PolicyFactory policy = named_policy(name);
      const std::optional<DrainResult> result =
          median_drain(shape.topology, policy, load, repetitions);
      if (!result) {
        std::fprintf(stderr, "bench_hotpath: %s/%s nondeterministic across reps\n",
                     shape.name, name);
        return 3;
      }
      const DrainResult& median = *result;
      report.add(name, median.total_cost, median.wall_ms)
          .param("shape", std::string(shape.name))
          .param("packets", static_cast<std::int64_t>(packets))
          .value("ns_per_round", median.ns_per_round)
          .value("rounds", static_cast<double>(median.rounds));
      table.add_row({shape.name, name, Table::fmt(median.rounds),
                     Table::fmt(median.ns_per_round, 1), Table::fmt(median.total_cost, 1)});

      if (phases && !add_phase_rows(report, phase_table, shape.name, shape.topology, name,
                                    policy, load, median, repetitions)) {
        return 3;
      }
    }
  }
  Table deep_table(
      {"policy", "weights", "fill ns/pkt", "rounds", "ns/round", "pkts/cpu-s", "total cost"});
  if (!quick) {
    const Topology pod = deep_pod();
    const std::size_t deep_packets = 20000;
    for (const bool integer_weights : {false, true}) {
      const char* weights = integer_weights ? "integer" : "continuous";
      const std::vector<Packet> load = burst(pod, deep_packets, 11, integer_weights);
      for (const char* name : {"alg", "maxweight", "fifo"}) {
        const PolicyFactory policy = named_policy(name);
        const std::optional<DrainResult> result = median_drain(pod, policy, load, repetitions);
        if (!result) {
          std::fprintf(stderr, "bench_hotpath: deep/%s/%s nondeterministic across reps\n",
                       weights, name);
          return 3;
        }
        const DrainResult& median = *result;
        const double pkts_per_cpu_s =
            median.cpu_s > 0.0 ? static_cast<double>(deep_packets) / median.cpu_s : 0.0;
        report.add(name, median.total_cost, median.wall_ms)
            .param("shape", std::string("deep_two_tier8x2"))
            .param("weights", std::string(weights))
            .param("packets", static_cast<std::int64_t>(deep_packets))
            .param("timed", std::string("drain"))
            .value("ns_per_round", median.ns_per_round)
            .value("rounds", static_cast<double>(median.rounds))
            .value("pkts_per_cpu_s", pkts_per_cpu_s);
        report
            .add(name, median.total_cost,
                 median.fill_ns_per_packet * static_cast<double>(deep_packets) * 1e-6)
            .param("shape", std::string("deep_two_tier8x2"))
            .param("weights", std::string(weights))
            .param("packets", static_cast<std::int64_t>(deep_packets))
            .param("timed", std::string("fill"))
            .value("ns_per_packet", median.fill_ns_per_packet);
        deep_table.add_row({name, weights, Table::fmt(median.fill_ns_per_packet, 1),
                            Table::fmt(median.rounds), Table::fmt(median.ns_per_round, 1),
                            Table::fmt(pkts_per_cpu_s, 0), Table::fmt(median.total_cost, 1)});
        const std::string shape = std::string("deep_two_tier8x2/") + weights;
        if (phases && !add_phase_rows(report, phase_table, shape.c_str(), pod, name, policy,
                                      load, median, repetitions)) {
          return 3;
        }
      }
    }
  }
  table.print("EXP-P2: scheduling-round drain cost (median of repetitions)");
  if (!quick) {
    deep_table.print("EXP-P2: deep-queue fill and drain, 20k-packet bursts on the 8-rack pod");
  }
  if (phases) {
    phase_table.print("EXP-P2: per-phase self time (probe-on drains, median rep)");
  }
  report.print();
  return 0;
}

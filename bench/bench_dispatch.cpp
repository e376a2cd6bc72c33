// EXP-B2 -- dispatcher ablation: the paper's worst-case-impact dispatch
// rule vs uninformed alternatives (random / round-robin / JSQ / min-delay
// / direct-only), all under the same stable-matching scheduler. Isolates
// the value of the dispatch half of ALG.
//
// The dispatch MICRObench: per-decision latency of the impact and JSQ
// rules at 256-endpoint shapes with deep pending queues, comparing the
// engine's incremental impact index (O(log n) per edge; O(1) for JSQ's
// load) against the naive scans kept in core/impact.hpp as oracles. The
// scan rows run the very rules the indexed rows do (impact_route,
// jsq_route), so only the Delta or load source differs. Emits BenchReport
// JSON (ns_per_dispatch rows) and prints the indexed-vs-scan speedup per
// shape.
//
// The scan rows read the edge queues incident to the candidate edge's
// endpoints (Engine::for_each_pending_at), so they cost O(pending at those
// endpoints) per edge, like the per-endpoint scans the index replaced.

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "baseline/dispatchers.hpp"
#include "common.hpp"
#include "core/alg.hpp"
#include "core/impact.hpp"
#include "net/builders.hpp"
#include "util/rng.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::bench;

/// ALG's rule (impact_route) with Delta resolved through the naive scan of
/// the queues at the edge's endpoints -- the pre-index rule, timed as the
/// probe baseline. Decisions are identical to the indexed rule up to
/// l_weight reassociation ulps.
class ScanImpactDispatcher final : public DispatchPolicy {
 public:
  RouteDecision dispatch(const Engine& engine, const Packet& packet) override {
    return impact_route(engine, packet, [&](EdgeIndex e) {
      return impact_of_scan(engine, packet, e).delta;
    });
  }
};

/// JSQ's rule (jsq_route) with the load from a scan of the queues at the
/// edge's endpoints instead of the impact index's O(1) counters.
class ScanJsqDispatcher final : public DispatchPolicy {
 public:
  RouteDecision dispatch(const Engine& engine, const Packet& packet) override {
    return jsq_route(engine, packet, [&](EdgeIndex e) {
      const ReconfigEdge& edge = engine.topology().edge(e);
      std::int64_t load = 0;
      engine.for_each_pending_at(edge.transmitter, edge.receiver,
                                 [&load](const Candidate& c) { load += c.remaining; });
      return load;
    });
  }
};

struct ProbeShape {
  const char* name;
  Topology topology;
};

/// Two 256-endpoint shapes: a sparse wide pod and a parallel-link-heavy
/// pod (many edges per (t, r) pair -- the pair-overlap path).
std::vector<ProbeShape> probe_shapes() {
  std::vector<ProbeShape> shapes;
  {
    TwoTierConfig net;
    net.racks = 64;
    net.lasers_per_rack = 2;
    net.photodetectors_per_rack = 2;
    net.density = 0.25;
    net.max_edge_delay = 3;
    Rng rng(7);
    shapes.push_back({"two_tier64x2", build_two_tier(net, rng)});
  }
  {
    TwoTierConfig net;
    net.racks = 32;
    net.lasers_per_rack = 4;
    net.photodetectors_per_rack = 4;
    net.density = 0.25;
    net.max_edge_delay = 3;
    Rng rng(7);
    shapes.push_back({"parallel32x4", build_two_tier(net, rng)});
  }
  return shapes;
}

std::vector<Packet> deep_burst(const Topology& topology, std::size_t count,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Packet> packets;
  packets.reserve(count);
  while (packets.size() < count) {
    Packet p;
    p.id = static_cast<PacketIndex>(packets.size());
    p.arrival = 1;
    p.weight = rng.next_double(0.5, 8.0);
    p.source = static_cast<NodeIndex>(
        rng.next_below(static_cast<std::uint64_t>(topology.num_sources())));
    p.destination = static_cast<NodeIndex>(
        rng.next_below(static_cast<std::uint64_t>(topology.num_destinations())));
    if (!topology.routable(p.source, p.destination)) continue;
    packets.push_back(p);
  }
  return packets;
}

/// Median per-dispatch latency of `dispatcher` probed against a frozen
/// engine holding a deep pending state. dispatch() is a pure reader, so
/// the probes replay identically per repetition; the first (untimed) pass
/// warms scratch buffers and the lazily-built index structures.
double probe_ns_per_dispatch(DispatchPolicy& dispatcher, const Engine& engine,
                             const std::vector<Packet>& probes, int reps) {
  for (const Packet& p : probes) (void)dispatcher.dispatch(engine, p);
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (const Packet& p : probes) (void)dispatcher.dispatch(engine, p);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    samples.push_back(
        std::chrono::duration_cast<std::chrono::duration<double, std::nano>>(elapsed)
            .count() /
        static_cast<double>(probes.size()));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

void run_probe_bench(BenchReport& report) {
  std::printf("\nper-dispatch latency at 256-endpoint shapes (deep pending state)\n");
  Table table({"shape", "probe", "ns/dispatch", "speedup vs scan"});
  for (const ProbeShape& shape : probe_shapes()) {
    // Freeze one contended engine state: a deep burst dispatched by the
    // real impact rule, plus one scheduling round so the index has seen
    // per-chunk service too.
    ImpactDispatcher impact;
    StableMatchingScheduler scheduler;
    Engine engine(shape.topology, impact, scheduler, {}, [](RetiredPacket&&) {});
    const std::vector<Packet> load = deep_burst(shape.topology, 131072, 11);
    const Time arrival = 1;
    engine.begin_step(&arrival);
    for (const Packet& p : load) engine.inject(p);
    engine.finish_step();

    const std::vector<Packet> probes = deep_burst(shape.topology, 256, 23);
    const int reps = 7;
    ScanImpactDispatcher impact_scan;
    JsqDispatcher jsq;
    ScanJsqDispatcher jsq_scan;

    struct Probe {
      const char* name;
      DispatchPolicy* dispatcher;
      double ns = 0.0;
    };
    Probe rows[] = {{"impact-indexed", &impact},
                    {"impact-scan", &impact_scan},
                    {"jsq-indexed", &jsq},
                    {"jsq-scan", &jsq_scan}};
    for (Probe& row : rows) {
      row.ns = probe_ns_per_dispatch(*row.dispatcher, engine, probes, reps);
      report.add(row.name, 0.0, 0.0)
          .param("shape", std::string(shape.name))
          .param("pending", static_cast<std::int64_t>(load.size()))
          .value("ns_per_dispatch", row.ns);
    }
    const double impact_speedup = rows[1].ns / rows[0].ns;
    const double jsq_speedup = rows[3].ns / rows[2].ns;
    table.add_row({shape.name, "impact", Table::fmt(rows[0].ns, 1),
                   Table::fmt(impact_speedup, 1) + "x"});
    table.add_row({shape.name, "jsq", Table::fmt(rows[2].ns, 1),
                   Table::fmt(jsq_speedup, 1) + "x"});
  }
  table.print("dispatch microbench (median per decision; speedup = scan / indexed)");
}

}  // namespace

int main() {
  std::printf("EXP-B2: dispatcher ablation under stable-matching scheduling\n");
  std::printf("(weighted latency normalized to Impact = 1.00; 12 seeds per cell)\n");

  const auto policies = dispatcher_ablations();

  struct Scenario {
    const char* name;
    PairSkew skew;
    Delay fixed_delay;
    NodeIndex lasers;
  };
  const Scenario scenarios[] = {
      {"uniform, pure optical", PairSkew::Uniform, 0, 2},
      {"hotspot, pure optical", PairSkew::Hotspot, 0, 2},
      {"hotspot, hybrid (dl=8)", PairSkew::Hotspot, 8, 2},
      {"incast, parallel links", PairSkew::Incast, 0, 4},
  };

  BenchReport report("dispatch");
  BatchRunner batch;
  for (const Scenario& scenario : scenarios) {
    ScenarioSpec spec = two_tier_scenario(scenario.name, 10, scenario.lasers, 0.5, 3);
    spec.topology.two_tier.fixed_link_delay = scenario.fixed_delay;
    spec.workload.num_packets = 200;
    spec.workload.arrival_rate = 5.0;
    spec.workload.skew = scenario.skew;
    spec.workload.weights = WeightDist::UniformInt;
    spec.workload.weight_max = 10;
    spec.repetitions = 12;
    batch.add_grid(spec, policies);
  }
  const auto results = batch.run();  // scenario-major: results[scenario][policy]
  auto cell = [&](std::size_t s, std::size_t p) -> const ScenarioResult& {
    return results[s * policies.size() + p];
  };

  Table table({"dispatcher", scenarios[0].name, scenarios[1].name, scenarios[2].name,
               scenarios[3].name});
  for (std::size_t p = 0; p < policies.size(); ++p) {
    std::vector<std::string> row = {policies[p].name};
    for (std::size_t s = 0; s < 4; ++s) {
      row.push_back(Table::fmt(cell(s, p).cost.mean() / cell(s, 0).cost.mean(), 2) + "x");
      report.add(cell(s, p)).param("workload", scenarios[s].name);
    }
    table.add_row(row);
  }
  table.print("dispatch policy ablation (columns = scenarios)");
  std::printf(
      "\nExpected shape: the impact rule wins or ties everywhere; the gap is largest\n"
      "with parallel links under skew (where greedy-queue-blind dispatch collides)\n"
      "and in hybrid pods (where the Delta-vs-w*dl comparison offloads correctly).\n");

  run_probe_bench(report);
  report.print();
  return 0;
}

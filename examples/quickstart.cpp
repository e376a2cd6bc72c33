// Quickstart: build a tiny two-tiered reconfigurable datacenter, submit a
// handful of packets online, run the paper's algorithm (impact dispatcher
// + stable-matching scheduler) through the ScenarioRunner, and inspect the
// resulting schedule and its dual-fitting certificate.
//
//   $ ./examples/quickstart

#include <cstdio>

#include "core/dual_witness.hpp"
#include "run/scenario.hpp"
#include "sim/metrics.hpp"
#include "util/table.hpp"

namespace {

using namespace rdcn;

// --- 1. Describe the network and the online packet sequence --------------
// Two racks, each with a laser (transmitter) and a photodetector
// (receiver); cross-rack reconfigurable links of delay 1 and 2, and a
// slow fixed link from rack 0 to rack 1 (delay 5).
Instance make_quickstart_instance() {
  Topology topology;
  topology.add_sources(2);
  topology.add_destinations(2);
  const NodeIndex laser0 = topology.add_transmitter(/*source=*/0);
  const NodeIndex laser1 = topology.add_transmitter(/*source=*/1);
  const NodeIndex pd0 = topology.add_receiver(/*destination=*/0);
  const NodeIndex pd1 = topology.add_receiver(/*destination=*/1);
  topology.add_edge(laser0, pd1, /*delay=*/1);
  topology.add_edge(laser1, pd0, /*delay=*/2);
  topology.add_fixed_link(/*source=*/0, /*destination=*/1, /*delay=*/5);

  Instance instance(std::move(topology), {});
  instance.add_packet(/*arrival=*/1, /*weight=*/4.0, /*src=*/0, /*dst=*/1);
  instance.add_packet(/*arrival=*/1, /*weight=*/1.0, /*src=*/0, /*dst=*/1);
  instance.add_packet(/*arrival=*/2, /*weight=*/2.0, /*src=*/1, /*dst=*/0);
  instance.add_packet(/*arrival=*/3, /*weight=*/1.0, /*src=*/0, /*dst=*/1);
  return instance;
}

}  // namespace

int main() {
  using namespace rdcn;

  // --- 2. Wrap it in a scenario and run ALG -------------------------------
  // Bespoke instances plug into the same runner the benches use.
  ScenarioSpec spec;
  spec.name = "quickstart";
  spec.make_instance = [](std::uint64_t) { return make_quickstart_instance(); };
  const ScenarioRunner runner(spec);

  const Instance instance = runner.instance(1);
  const RunResult run = runner.run_once(alg_policy(), instance);

  Table table({"packet", "route", "alpha", "transmit steps", "completion", "latency"});
  for (std::size_t i = 0; i < instance.num_packets(); ++i) {
    const PacketOutcome& outcome = run.outcomes[i];
    std::string route = outcome.route.use_fixed
                            ? "fixed link"
                            : "edge #" + std::to_string(outcome.route.edge);
    std::string steps;
    for (Time t : outcome.chunk_transmit_steps) {
      if (!steps.empty()) steps += ',';
      steps += std::to_string(t);
    }
    if (steps.empty()) steps = "-";
    table.add_row({"p" + std::to_string(i), route, Table::fmt(outcome.route.alpha, 2), steps,
                   Table::fmt(static_cast<std::int64_t>(outcome.completion)),
                   Table::fmt(outcome.weighted_latency, 2)});
  }
  table.print("quickstart: ALG schedule");

  const ScheduleSummary summary = summarize(instance, run);
  std::printf("\ntotal weighted latency : %.2f\n", summary.total_cost);
  std::printf("makespan               : %lld\n", static_cast<long long>(summary.makespan));
  std::printf("reconfigurable share   : %.0f%%\n", 100.0 * summary.reconfig_fraction);

  // --- 3. Certify with the paper's dual-fitting witness -------------------
  const DualWitness witness = build_dual_witness(instance, run);
  const double eps = 1.0;  // compare against an OPT at 1/(2+eps) speed
  std::printf("\ndual certificate (eps=%.1f):\n", eps);
  std::printf("  sum alpha            : %.2f  (>= ALG cost: %s)\n", witness.sum_alpha,
              witness.sum_alpha + 1e-9 >= run.total_cost ? "yes" : "NO");
  std::printf("  certified OPT bound  : %.2f  (Lemma 5: D/2 <= OPT)\n",
              witness.lower_bound(eps));
  std::printf("  theorem-1 guarantee  : ALG <= %.1f x OPT(1/(2+eps)-speed)\n",
              2.0 * (2.0 / eps + 1.0));
  return 0;
}

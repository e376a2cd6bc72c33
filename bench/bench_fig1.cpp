// EXP-F1 -- Figure 1 of the paper: the worked example instance.
// Regenerates the figure's table (packets, paths, arrivals, transmission
// steps / edges) for three schedules: the paper's example schedule (cost
// 9), the exact offline optimum (cost 7, brute force), and ALG's actual
// schedule. Paper-expected values are printed alongside.

#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "core/alg.hpp"
#include "net/builders.hpp"
#include "opt/brute_force.hpp"

int main() {
  using namespace rdcn;
  using namespace rdcn::bench;

  // The figure's fixed instance, routed through the scenario layer like
  // every other bench.
  ScenarioSpec spec;
  spec.name = "figure1";
  spec.make_instance = [](std::uint64_t) { return figure1_instance(); };
  ScenarioRunner runner(spec);
  const Instance instance = runner.instance(1);
  std::printf("EXP-F1: Figure 1 worked example\n");
  std::printf("graph: S={s1,s2}, T={t1,t2,t3}, R={r1..r4}, D={d1,d2,d3}; "
              "d(e)=1 on dashed edges, d(s2,d3)=4 on the fixed link\n");

  // The figure's own table (the feasible example schedule).
  Table paper({"packet", "path", "arrival", "transmission", "edge"});
  paper.add_row({"p1", "s1->d1", "1", "1", "(t1,r1)"});
  paper.add_row({"p2", "s1->d2", "1", "2", "(t1,r2)"});
  paper.add_row({"p3", "s2->d2", "1", "1", "(t3,r3)"});
  paper.add_row({"p4", "s2->d2", "2", "2", "(t3,r3)"});
  paper.add_row({"p5", "s2->d3", "2", "2", "(s2,d3)"});
  paper.print("paper's example schedule (cost 9)");

  const auto opt = brute_force_opt(instance);
  const RunResult alg = runner.run_once(alg_policy(), 1);

  const Figure1Ids ids = figure1_ids();
  auto edge_name = [&ids](EdgeIndex e) -> std::string {
    if (e == ids.t1r1) return "(t1,r1)";
    if (e == ids.t1r2) return "(t1,r2)";
    if (e == ids.t3r3) return "(t3,r3)";
    if (e == ids.t3r4) return "(t3,r4)";
    return "edge#" + std::to_string(e);
  };

  Table mine({"packet", "path", "arrival", "transmission", "edge"});
  const char* paths[] = {"s1->d1", "s1->d2", "s2->d2", "s2->d2", "s2->d3"};
  for (std::size_t i = 0; i < instance.num_packets(); ++i) {
    const PacketOutcome& outcome = alg.outcomes[i];
    std::string when, where;
    if (outcome.route.use_fixed) {
      when = std::to_string(instance.packets()[i].arrival);
      where = "(s2,d3)";
    } else {
      when = std::to_string(outcome.chunk_transmit_steps.at(0));
      where = edge_name(outcome.route.edge);
    }
    mine.add_row({"p" + std::to_string(i + 1), paths[i],
                  std::to_string(instance.packets()[i].arrival), when, where});
  }
  mine.print("ALG's schedule on the same instance");

  Table costs({"schedule", "cost", "paper expects"});
  costs.add_row({"paper's example", "9.000", "9"});
  costs.add_row({"exact optimum (brute force)",
                 opt ? Table::fmt(opt->cost) : "n/a", "7"});
  costs.add_row({"ALG (online)", Table::fmt(alg.total_cost), "<= 9 (not below 7)"});
  costs.print("EXP-F1 cost summary");

  const bool ok = opt.has_value() && std::abs(opt->cost - 7.0) < 1e-9 &&
                  alg.total_cost >= 7.0 - 1e-9 && alg.total_cost <= 9.0 + 1e-9;
  std::printf("\nEXP-F1 %s\n", ok ? "REPRODUCED" : "MISMATCH");

  BenchReport report("fig1");
  report.add("alg", alg.total_cost, 0.0).param("instance", "figure1");
  if (opt) report.add("brute-force-opt", opt->cost, 0.0).param("instance", "figure1");
  report.print();
  return ok ? 0 : 1;
}

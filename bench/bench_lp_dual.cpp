// EXP-F4 -- Figure 4 of the paper: the dual LP D and the dual-fitting
// witness of Section IV-B. Reports, per instance:
//   * strong duality between the generated Figure-3/Figure-4 models,
//   * the witness value vs the dual optimum (witness/2 is feasible),
//   * the per-constraint violation factor of the unhalved witness
//     (Lemma 4 asserts < 2).

#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "core/dual_witness.hpp"
#include "lp/paper_lps.hpp"
#include "lp/simplex.hpp"

int main() {
  using namespace rdcn;
  using namespace rdcn::bench;

  std::printf("EXP-F4: dual LP D (Figure 4) and the dual-fitting witness, eps = 1\n");
  const double eps = 1.0;

  BenchReport report("lp_dual");
  Table table({"seed", "primal LP", "dual LP", "duality gap", "witness D", "D/2 <= dualOPT",
               "max violation (<2)", "halved feasible"});
  bool ok = true;

  ScenarioSpec base = two_tier_scenario("lp-dual", 3, 1, 0.8, 1);
  base.topology.seed_salt = 1237;
  base.workload.num_packets = 4;
  base.workload.arrival_rate = 2.0;
  base.workload.weights = WeightDist::UniformInt;
  base.workload.weight_max = 4;
  base.repetitions = 6;
  const ScenarioRunner runner(base);

  ScenarioSpec wide = base;      // odd seeds: deeper delay spread
  wide.topology.two_tier.max_edge_delay = 2;
  const ScenarioRunner wide_runner(wide);
  ScenarioSpec hybrid = base;    // every third seed: fixed links present
  hybrid.topology.two_tier.fixed_link_delay = 4;
  const ScenarioRunner hybrid_runner(hybrid);

  for (const std::uint64_t seed : runner.seeds()) {
    const ScenarioRunner& chosen = (seed % 3 == 0)   ? hybrid_runner
                                   : (seed % 2 == 0) ? wide_runner
                                                     : runner;
    const Instance instance = chosen.instance(seed);

    const PaperLpOptions options{eps, 0};
    const lp::Solution primal = lp::solve(build_primal_lp(instance, options).model);
    const lp::Solution dual = lp::solve(build_dual_lp(instance, options).model);

    const RunResult run = chosen.run_once(alg_policy(), instance);
    const DualWitness witness = build_dual_witness(instance, run);
    const DualFeasibilityReport feasibility = check_dual_feasibility(instance, witness);

    const bool solved = primal.status == lp::SolveStatus::Optimal &&
                        dual.status == lp::SolveStatus::Optimal;
    const double gap = solved ? std::abs(primal.objective - dual.objective) : -1.0;
    const bool witness_below = witness.lower_bound(eps) <= dual.objective + 1e-6;
    ok = ok && solved && gap < 1e-5 * (1 + primal.objective) && witness_below &&
         feasibility.halved_feasible && feasibility.max_violation_ratio < 2.0 + 1e-9;

    table.add_row({Table::fmt(seed), solved ? Table::fmt(primal.objective) : "FAIL",
                   solved ? Table::fmt(dual.objective) : "FAIL", Table::fmt(gap, 6),
                   Table::fmt(witness.objective(eps)), witness_below ? "yes" : "NO",
                   Table::fmt(feasibility.max_violation_ratio, 4),
                   feasibility.halved_feasible ? "yes" : "NO"});
    report.add("alg", run.total_cost, 0.0)
        .param("seed", static_cast<std::int64_t>(seed))
        .value("witness", witness.objective(eps))
        .value("violation", feasibility.max_violation_ratio);
  }
  table.print("Figure 3 vs Figure 4: strong duality and the Section IV-B witness");

  std::printf("\nEXP-F4 %s\n", ok ? "REPRODUCED (Lemma 4/5 hold on every instance)"
                                  : "MISMATCH");
  report.print();
  return ok ? 0 : 1;
}

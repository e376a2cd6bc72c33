// Certified scheduling: runs ALG on a random instance and then verifies,
// at runtime, every guarantee the paper proves about the run --
//   Lemma 1 (beta ledgers), Lemma 2 (charges within alpha),
//   Lemma 4/5 (halved witness dual-feasible), Lemma 3 / Theorem 1.
// This is the library's "self-auditing" mode: the same machinery the
// test-suite uses, exposed as an application.
//
//   $ ./examples/certified_run [seed]

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/charging.hpp"
#include "core/dual_witness.hpp"
#include "run/scenario.hpp"
#include "sim/metrics.hpp"

int main(int argc, char** argv) {
  using namespace rdcn;

  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;

  ScenarioSpec spec;
  spec.name = "certified-run";
  auto& net = spec.topology.two_tier;
  net.racks = 6;
  net.lasers_per_rack = 2;
  net.photodetectors_per_rack = 2;
  net.density = 0.7;
  net.max_edge_delay = 3;
  net.fixed_link_delay = 10;
  spec.workload.num_packets = 60;
  spec.workload.arrival_rate = 4.0;
  spec.workload.skew = PairSkew::Zipf;
  spec.workload.weights = WeightDist::UniformInt;
  spec.workload.weight_max = 9;
  spec.base_seed = seed;
  const ScenarioRunner runner(spec);

  const Instance instance = runner.instance(seed);
  const Topology& topology = instance.topology();
  std::printf("instance: %zu packets on %d racks (%d edges, hybrid)\n",
              instance.num_packets(), topology.num_sources(), topology.num_edges());

  const RunResult run = runner.run_once(alg_policy(), instance);
  std::printf("ALG cost: %.3f (reconfig %.3f + fixed %.3f), makespan %lld\n\n",
              run.total_cost, run.reconfig_cost, run.fixed_cost,
              static_cast<long long>(run.makespan));

  int failures = 0;
  const auto check = [&failures](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
    failures += ok ? 0 : 1;
  };

  std::printf("delivery & accounting:\n");
  check(all_delivered(instance, run), "every packet delivered");
  check(std::abs(run.total_cost - recompute_cost(instance, run)) < 1e-6,
        "incremental == per-chunk recomputed cost");
  check(std::abs(run.total_cost - recompute_cost_active_form(instance, run)) < 1e-6,
        "incremental == continuous-form cost");

  std::printf("Lemma 1 (beta ledger):\n");
  const DualWitness witness = build_dual_witness(instance, run);
  check(lemma1_gap(witness, run) < 1e-6,
        "sum_t beta == sum_r beta == reconfigurable cost");

  std::printf("Lemma 2 (charging scheme):\n");
  const ChargingAudit audit = audit_charging(instance, run);
  check(audit.max_overcharge <= 1e-7, "every packet's charge <= alpha_p");
  check(audit.cover_gap < 1e-6, "charges partition ALG's cost");
  if (instance.has_integer_weights()) {
    const ExactChargingAudit exact = audit_charging_exact(instance, run);
    check(exact.charges_cover_cost, "exact rational: charges cover cost");
    check(exact.within_alpha, "exact rational: charge <= alpha");
  }

  std::printf("Lemma 4/5 (dual feasibility):\n");
  const DualFeasibilityReport feasibility = check_dual_feasibility(instance, witness);
  check(feasibility.halved_feasible, "halved witness satisfies all dual constraints");
  std::printf("        max violation ratio %.4f (< 2 by Lemma 4), %zu constraints\n",
              feasibility.max_violation_ratio, feasibility.constraints_checked);

  std::printf("Lemma 3 / Theorem 1:\n");
  for (const double eps : {0.5, 1.0, 2.0}) {
    const double dual_value = witness.objective(eps);
    const bool lemma3 = run.total_cost * eps / (2.0 + eps) <= dual_value + 1e-6;
    std::printf("  [%s] eps=%.1f: ALG (%.2f) <= (2+eps)/eps * D (%.2f); certified OPT >= %.2f\n",
                lemma3 ? "PASS" : "FAIL", eps, run.total_cost,
                (2.0 + eps) / eps * dual_value, witness.lower_bound(eps));
    failures += lemma3 ? 0 : 1;
  }

  std::printf("\n%s\n", failures == 0 ? "all certificates verified" : "CERTIFICATE FAILURES");
  return failures == 0 ? 0 : 1;
}

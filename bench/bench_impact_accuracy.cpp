// EXP-ACC -- how conservative is the worst-case impact estimate? The
// dispatcher freezes alpha_p = Delta_p(e_p) at arrival; the charging
// auditor recovers each packet's REALIZED impact c_p <= alpha_p (Lemma 2).
// This experiment measures the gap: mean utilization c_p / alpha_p, its
// distribution, and how it moves with load -- quantifying Figure 2's
// point that realized impacts drift below the frozen estimates as later
// arrivals reshuffle the stable matchings.

#include <cstdio>

#include "common.hpp"
#include "core/charging.hpp"

int main() {
  using namespace rdcn;
  using namespace rdcn::bench;

  std::printf("EXP-ACC: realized charge c_p vs frozen worst-case impact alpha_p\n");
  std::printf("(10 racks, 2x2, zipf; 12 seeds per row; Lemma 2 guarantees ratio <= 1)\n");

  BenchReport report("impact_accuracy");
  Table table({"load/step", "mean c/alpha", "p50", "p90", "max", "share at 1.0",
               "sum c / sum alpha"});
  for (const double rate : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    ScenarioSpec spec = two_tier_scenario("load" + Table::fmt(rate, 0), 10, 2, 0.5);
    spec.topology.seed_salt = 271;
    spec.workload.num_packets = 150;
    spec.workload.arrival_rate = rate;
    spec.workload.skew = PairSkew::Zipf;
    spec.workload.weights = WeightDist::UniformInt;
    spec.workload.weight_max = 8;
    spec.repetitions = 12;
    const ScenarioRunner runner(spec);

    Summary ratio_all, totals;
    std::size_t saturated = 0, counted = 0;
    for (const std::uint64_t seed : runner.seeds()) {
      const Instance instance = runner.instance(seed);
      const RunResult run = runner.run_once(alg_policy(), instance);
      const ChargingAudit audit = audit_charging(instance, run);
      double sum_alpha = 0.0;
      for (std::size_t i = 0; i < instance.num_packets(); ++i) {
        const double alpha = run.outcomes[i].route.alpha;
        if (alpha <= 0) continue;
        const double ratio = audit.charge[i] / alpha;
        ratio_all.add(ratio);
        saturated += (ratio > 0.999) ? 1 : 0;
        ++counted;
        sum_alpha += alpha;
      }
      totals.add(audit.total_charge / sum_alpha);
    }
    table.add_row({Table::fmt(rate, 0), Table::fmt(ratio_all.mean(), 3),
                   Table::fmt(ratio_all.percentile(50), 3),
                   Table::fmt(ratio_all.percentile(90), 3), Table::fmt(ratio_all.max(), 3),
                   Table::fmt(100.0 * static_cast<double>(saturated) /
                                  static_cast<double>(counted),
                              1) +
                       "%",
                   Table::fmt(totals.mean(), 3)});
    report.add("alg", ratio_all.mean(), 0.0)
        .param("rate", rate)
        .value("charge_over_alpha", totals.mean());
  }
  table.print("impact-estimate utilization vs load");

  std::printf(
      "\nReading: at light load most packets realize their full estimate (they are\n"
      "alone: c = alpha = base latency). As load grows, later arrivals restructure\n"
      "the matchings and realized charges fall below the frozen worst case -- yet\n"
      "the max never crosses 1.0, which is Lemma 2 observed packet by packet.\n");
  report.print();
  return 0;
}

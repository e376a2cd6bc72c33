// EXP-RND -- randomized scheduling (the paper's Section-VI future-work
// question): does randomizing the stable-matching priorities help?
// Compares deterministic ALG against log-normal priority perturbation
// (several sigmas) and uniform random serial dictatorship, reporting the
// mean and spread over scheduler coin flips.

#include <cstdio>

#include "baseline/schedulers.hpp"
#include "common.hpp"
#include "core/randomized.hpp"

int main() {
  using namespace rdcn;
  using namespace rdcn::bench;

  std::printf("EXP-RND: randomized scheduling vs deterministic ALG\n");
  std::printf("(12 instance seeds x 8 coin seeds; cost normalized to deterministic ALG)\n");

  BenchReport report("randomized");
  Table table({"scheduler", "mean", "stddev over coins", "worst", "best"});

  struct Variant {
    std::string name;
    double sigma;    // < 0 encodes the serial dictator
  };
  const Variant variants[] = {
      {"deterministic ALG", 0.0},
      {"perturbed sigma=0.1", 0.1},
      {"perturbed sigma=0.5", 0.5},
      {"perturbed sigma=2.0", 2.0},
      {"random serial dictator", -1.0},
  };

  ScenarioSpec spec = two_tier_scenario("randomized", 10, 2, 0.5);
  spec.topology.seed_salt = 211;
  spec.workload.num_packets = 150;
  spec.workload.arrival_rate = 5.0;
  spec.workload.skew = PairSkew::Zipf;
  spec.workload.weights = WeightDist::UniformInt;
  spec.workload.weight_max = 9;
  spec.repetitions = 12;
  const ScenarioRunner runner(spec);

  for (const Variant& variant : variants) {
    // One policy factory per coin flip: same dispatcher, reseeded scheduler.
    auto coin_policy = [&variant](std::uint64_t coin) {
      PolicyFactory policy = alg_policy();
      policy.name = variant.name;
      if (variant.sigma < 0) {
        policy.scheduler = [coin](const Topology&) {
          return std::make_unique<RandomMaximalScheduler>(coin * 7919);
        };
      } else if (variant.sigma > 0) {
        const double sigma = variant.sigma;
        policy.scheduler = [sigma, coin](const Topology&) {
          return std::make_unique<PerturbedStableScheduler>(sigma, coin * 7919);
        };
      }
      return policy;
    };

    Summary ratio;
    for (const std::uint64_t seed : runner.seeds()) {
      const double baseline = runner.run_once(alg_policy(), seed).total_cost;
      const std::size_t coins = variant.sigma == 0.0 ? 1 : 8;
      for (std::uint64_t coin = 1; coin <= coins; ++coin) {
        ratio.add(runner.run_once(coin_policy(coin), seed).total_cost / baseline);
      }
    }
    table.add_row({variant.name, Table::fmt(ratio.mean(), 3), Table::fmt(ratio.stddev(), 3),
                   Table::fmt(ratio.max(), 3), Table::fmt(ratio.min(), 3)});
    report.add(variant.name, ratio.mean(), 0.0)
        .param("sigma", variant.sigma)
        .value("stddev", ratio.stddev());
  }
  table.print("randomization ablation");

  std::printf(
      "\nExpected shape: small perturbations track deterministic ALG (near-ties are\n"
      "interchangeable); heavy noise and weight-blind dictatorship lose ground --\n"
      "evidence that the weight order, not tie-breaking, carries ALG's power. The\n"
      "open question in Section VI is whether randomization can beat the 2(2/eps+1)\n"
      "bound in the worst case; on average it does not help here.\n");
  report.print();
  return 0;
}

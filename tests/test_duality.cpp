// Machine-checks the analysis of Section IV on randomized instance
// families:
//   Lemma 1 -- the beta ledgers balance and equal ALG's reconfigurable cost;
//   Lemma 2 -- charges partition ALG's cost and stay within alpha_p
//              (exactly, in rational arithmetic, for integer weights);
//   Lemma 3 -- ALG <= (2+eps)/eps * D for the witness objective D;
//   Lemma 4/5 -- the halved witness is dual-feasible (violation factor < 2);
// and that exact_alphas' one-pass sweep equals a rescan of every earlier
// packet (tests/exact_alphas_rescan.hpp), here and on 2000-packet pods.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/alg.hpp"
#include "core/charging.hpp"
#include "core/dual_witness.hpp"
#include "exact_alphas_rescan.hpp"
#include "helpers.hpp"
#include "sim/metrics.hpp"

namespace rdcn {
namespace {

class DualityProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    instance_ = testing::make_varied_instance(GetParam());
    run_ = run_alg(instance_);
    witness_ = build_dual_witness(instance_, run_);
  }

  Instance instance_;
  RunResult run_;
  DualWitness witness_;
};

TEST_P(DualityProperty, AllPacketsDelivered) {
  EXPECT_TRUE(all_delivered(instance_, run_));
  EXPECT_NEAR(run_.total_cost, recompute_cost(instance_, run_), 1e-6);
  EXPECT_NEAR(run_.total_cost, recompute_cost_active_form(instance_, run_), 1e-6);
}

TEST_P(DualityProperty, Lemma1BetaLedgersBalance) {
  EXPECT_NEAR(lemma1_gap(witness_, run_), 0.0, 1e-6);
  // beta never exceeds ALG's cost (Lemma 1's inequality).
  EXPECT_LE(witness_.sum_beta_t, run_.total_cost + 1e-6);
}

TEST_P(DualityProperty, Lemma2ChargesWithinAlpha) {
  const ChargingAudit audit = audit_charging(instance_, run_);
  EXPECT_LE(audit.max_overcharge, 1e-7) << "some packet charged above alpha_p";
  EXPECT_NEAR(audit.cover_gap, 0.0, 1e-6) << "charges do not partition ALG's cost";
}

TEST_P(DualityProperty, Lemma2ExactRationalAudit) {
  ASSERT_TRUE(instance_.has_integer_weights());
  const ExactChargingAudit audit = audit_charging_exact(instance_, run_);
  EXPECT_TRUE(audit.charges_cover_cost);
  EXPECT_TRUE(audit.within_alpha);
  // The engine's double alphas agree with the exact recomputation.
  for (std::size_t i = 0; i < instance_.num_packets(); ++i) {
    EXPECT_NEAR(run_.outcomes[i].route.alpha, audit.alpha[i].to_double(), 1e-9);
  }
  // And the exact total cost matches the engine's accounting.
  EXPECT_NEAR(audit.total_cost.to_double(), run_.total_cost, 1e-6);
}

TEST_P(DualityProperty, Lemma3AlgWithinDualObjective) {
  for (const double eps : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    const double dual_objective = witness_.objective(eps);
    // ALG <= (2+eps)/eps * D  (Lemma 3). Rearranged to avoid dividing by a
    // possibly tiny D.
    EXPECT_LE(run_.total_cost * eps / (2.0 + eps), dual_objective + 1e-6)
        << "eps=" << eps;
  }
}

TEST_P(DualityProperty, Lemma4HalvedWitnessFeasible) {
  const DualFeasibilityReport report = check_dual_feasibility(instance_, witness_);
  EXPECT_TRUE(report.halved_feasible);
  EXPECT_LT(report.max_violation_ratio, 2.0 + 1e-9);
  EXPECT_GT(report.constraints_checked, 0u);
}

TEST_P(DualityProperty, AlphaSumDominatesCost) {
  // Summing Lemma 2 over packets: ALG <= sum_p alpha_p.
  EXPECT_LE(run_.total_cost, witness_.sum_alpha + 1e-6);
}

TEST_P(DualityProperty, ExactAlphasMatchTheRescan) {
  EXPECT_EQ(exact_alphas(instance_, run_), testing::exact_alphas_by_rescan(instance_, run_));
}

TEST(ExactAlphas, SweepMatchesTheRescanOnLargePods) {
  // Hybrid and pure two-tier pods with attach delays, congested enough
  // that packets hold chunks across many later arrivals.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    testing::RandomInstanceSpec spec;
    spec.seed = seed;
    spec.racks = 8;
    spec.density = 0.8;
    spec.max_edge_delay = 3;
    spec.attach_delay = seed == 2 ? 1 : 0;
    spec.fixed_link_delay = seed == 3 ? 0 : 12;
    spec.packets = 2000;
    spec.arrival_rate = 6.0;
    spec.skew = static_cast<PairSkew>(seed);
    spec.weight_max = 16;
    const Instance instance = testing::make_random_instance(spec);
    const RunResult run = run_alg(instance);
    const std::vector<Rational> alphas = exact_alphas(instance, run);
    EXPECT_EQ(alphas, testing::exact_alphas_by_rescan(instance, run)) << "seed " << seed;
    // The engine's double alphas agree with the exact ones.
    for (std::size_t i = 0; i < instance.num_packets(); ++i) {
      EXPECT_NEAR(run.outcomes[i].route.alpha, alphas[i].to_double(),
                  1e-9 * (1.0 + std::abs(alphas[i].to_double())))
          << "seed " << seed << " packet " << i;
    }
  }
}

TEST(ExactAlphas, RejectsTransmitStepsOutOfOrder) {
  const Instance instance = testing::make_varied_instance(103);
  RunResult run = run_alg(instance);
  for (PacketOutcome& outcome : run.outcomes) {
    if (outcome.chunk_transmit_steps.size() >= 2) {
      std::reverse(outcome.chunk_transmit_steps.begin(), outcome.chunk_transmit_steps.end());
      break;
    }
  }
  EXPECT_THROW(exact_alphas(instance, run), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DualityProperty, ::testing::Range<std::uint64_t>(1, 41));
// Larger, congested shapes (60-100 packets, deeper queues, attach delays).
INSTANTIATE_TEST_SUITE_P(LargeSeeds, DualityProperty,
                         ::testing::Range<std::uint64_t>(101, 113));

}  // namespace
}  // namespace rdcn

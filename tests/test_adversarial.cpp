// Tests of the structured adversarial instance families and the exact
// closed-form behaviour of ALG on them (these closed forms anchor the
// tightness experiment EXP-TGT).

#include <gtest/gtest.h>

#include "core/alg.hpp"
#include "exact_certificate.hpp"
#include "sim/metrics.hpp"
#include "workload/adversarial.hpp"

namespace rdcn {
namespace {

TEST(Adversarial, SingleEdgeBatchStaircase) {
  for (const std::size_t n : {1u, 5u, 20u}) {
    const Instance instance = adversarial_single_edge_batch(n);
    EXPECT_EQ(instance.validate(), "");
    const RunResult run = run_alg(instance);
    EXPECT_TRUE(all_delivered(instance, run));
    // Serial staircase: 1 + 2 + ... + n.
    EXPECT_DOUBLE_EQ(run.total_cost, static_cast<double>(n * (n + 1)) / 2.0);
  }
}

TEST(Adversarial, SingleEdgeBatchCertifiedRatioExactlySix) {
  const Instance instance = adversarial_single_edge_batch(15);
  const RunResult run = run_alg(instance);
  const ExactCertificate certificate =
      build_exact_certificate(instance, run, ExactEps{1, 1});
  // ALG == 6 * D/2 exactly: the certificate chain is saturated.
  EXPECT_EQ(certificate.alg_cost, Rational(6) * certificate.lower_bound);
}

TEST(Adversarial, WeightGradientServesHeaviestFirst) {
  const Instance instance = adversarial_weight_gradient(6);
  EXPECT_EQ(instance.validate(), "");
  const RunResult run = run_alg(instance);
  EXPECT_TRUE(all_delivered(instance, run));
  // One arrival per step, one transmitter slot per step: every packet
  // transmits in its own arrival step, so ALG's cost is sum of weights and
  // every alpha_p equals w_p (empty B_p at each dispatch) -- the other
  // family that saturates the certificate chain at exactly 6 in EXP-TGT.
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(run.outcomes[i].chunk_transmit_steps.at(0),
              static_cast<Time>(i + 1))
        << "packet " << i;
  }
  EXPECT_DOUBLE_EQ(run.total_cost, 1 + 2 + 3 + 4 + 5 + 6);
}

TEST(Adversarial, DelayTrapDivertsSomePacketsToSlowEdges) {
  const Instance instance = adversarial_delay_trap(8);
  EXPECT_EQ(instance.validate(), "");
  const RunResult run = run_alg(instance);
  EXPECT_TRUE(all_delivered(instance, run));
  std::size_t via_slow = 0;
  for (const PacketOutcome& outcome : run.outcomes) {
    const ReconfigEdge& edge = instance.topology().edge(outcome.route.edge);
    via_slow += (edge.delay == 4) ? 1 : 0;
  }
  // The shared fast receiver serializes; the impact rule must divert a
  // nontrivial share (but not everything) to the private slow edges.
  EXPECT_GT(via_slow, 0u);
  EXPECT_LT(via_slow, instance.num_packets());
}

TEST(Adversarial, BurstStormValidAndDeliverable) {
  Rng rng(13);
  const Instance instance = adversarial_burst_storm(10, rng);
  EXPECT_EQ(instance.validate(), "");
  const RunResult run = run_alg(instance);
  EXPECT_TRUE(all_delivered(instance, run));
  EXPECT_NEAR(run.total_cost, recompute_cost(instance, run), 1e-9);
}

}  // namespace
}  // namespace rdcn

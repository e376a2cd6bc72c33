// Direct tests of the LP model containers (double and exact) and of
// engine option combinations not covered elsewhere.

#include <gtest/gtest.h>

#include "core/alg.hpp"
#include "exact_simplex.hpp"
#include "helpers.hpp"
#include "lp/model.hpp"
#include "net/builders.hpp"
#include "sim/metrics.hpp"

namespace rdcn {
namespace {

TEST(LpModel, ObjectiveAndViolation) {
  lp::Model model;
  const auto x = model.add_variable(2.0, "x");
  const auto y = model.add_variable(-1.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, lp::Relation::LessEq, 3.0);
  model.add_constraint({{x, 1.0}}, lp::Relation::GreaterEq, 1.0);
  model.add_constraint({{y, 2.0}}, lp::Relation::Equal, 2.0);

  EXPECT_EQ(model.variable_name(x), "x");
  EXPECT_EQ(model.variable_name(y), "x1");
  EXPECT_DOUBLE_EQ(model.objective_value({2.0, 1.0}), 3.0);
  // (2, 1): 3 <= 3 ok, 2 >= 1 ok, 2 == 2 ok, nonneg ok.
  EXPECT_DOUBLE_EQ(model.max_violation({2.0, 1.0}), 0.0);
  // (0, 3): LessEq ok (3<=3), GreaterEq violated by 1, Equal violated by 4.
  EXPECT_DOUBLE_EQ(model.max_violation({0.0, 3.0}), 4.0);
  // Negative variable counts as violation.
  EXPECT_DOUBLE_EQ(model.max_violation({-0.5, 1.0}), 1.5);
}

TEST(LpModel, RejectsUnknownVariable) {
  lp::Model model;
  model.add_variable(1.0);
  EXPECT_THROW(model.add_constraint({{5, 1.0}}, lp::Relation::LessEq, 1.0),
               std::out_of_range);
}

TEST(ExactModel, FeasibilityIsExact) {
  lp::ExactModel model;
  const auto x = model.add_variable(Rational(1));
  model.add_constraint({{x, Rational(3)}}, lp::ExactRelation::Equal, Rational(1));
  // x = 1/3 satisfies exactly; x = 0.3333 would not. No epsilon involved.
  EXPECT_TRUE(model.is_feasible({Rational(1, 3)}));
  EXPECT_FALSE(model.is_feasible({Rational(3333, 10000)}));
  EXPECT_EQ(model.objective_value({Rational(1, 3)}), Rational(1, 3));
}

TEST(EngineCombos, SpeedupWithCapacity) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Instance instance = testing::make_varied_instance(seed);
    ImpactDispatcher dispatcher;
    StableMatchingScheduler scheduler;
    EngineOptions options;
    options.speedup_rounds = 2;
    options.endpoint_capacity = 2;
    const RunResult run = simulate(instance, dispatcher, scheduler, options);
    EXPECT_TRUE(all_delivered(instance, run)) << "seed " << seed;
    EXPECT_NEAR(run.total_cost, recompute_cost(instance, run), 1e-6);
  }
}

TEST(EngineCombos, SpeedupWithReconfigDelay) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Instance instance = testing::make_varied_instance(seed);
    ImpactDispatcher dispatcher;
    StableMatchingScheduler scheduler;
    EngineOptions options;
    options.speedup_rounds = 2;
    options.reconfig_delay = 1;
    const RunResult run = simulate(instance, dispatcher, scheduler, options);
    EXPECT_TRUE(all_delivered(instance, run)) << "seed " << seed;
  }
}

TEST(EngineCombos, MigrationWithCapacity) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Instance instance = testing::make_varied_instance(seed);
    ImpactDispatcher dispatcher;
    StableMatchingScheduler scheduler;
    EngineOptions options;
    options.redispatch_queued = true;
    options.endpoint_capacity = 2;
    const RunResult run = simulate(instance, dispatcher, scheduler, options);
    EXPECT_TRUE(all_delivered(instance, run)) << "seed " << seed;
  }
}

TEST(EngineCombos, ReconfigDelayRejectsCapacity) {
  const Instance instance = figure2_instance_pi();
  ImpactDispatcher dispatcher;
  StableMatchingScheduler scheduler;
  EngineOptions options;
  options.reconfig_delay = 1;
  options.endpoint_capacity = 2;
  EXPECT_THROW(Engine(instance, dispatcher, scheduler, options), std::invalid_argument);
}

}  // namespace
}  // namespace rdcn

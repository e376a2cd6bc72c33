// Tests for the check/ validation subsystem: the per-step invariant
// auditor (positive runs under every engine extension, negative runs with
// deliberately broken schedulers), the differential checker's oracles on
// golden instance families and streaming specs, the seed-derived fuzz
// entry points, and the failure minimizer's bisection.
//
// DifferentialRegression is the landing pad for minimized reproducers
// emitted by tools/rdcn_fuzz (paste the printed TEST(...) here verbatim).

#include <gtest/gtest.h>

#include <stdexcept>

#include "check/differential.hpp"
#include "check/minimize.hpp"
#include "core/alg.hpp"
#include "helpers.hpp"
#include "net/builders.hpp"
#include "run/policies.hpp"
#include "run/random.hpp"
#include "run/scenario.hpp"
#include "sim/metrics.hpp"

namespace rdcn {
namespace {

// --------------------------------------------------------------- auditor --

TEST(InvariantAuditor, ObservationOnlyAcrossPoliciesAndShapes) {
  // Audited runs must neither throw nor perturb the schedule.
  for (const std::uint64_t seed : {1ULL, 3ULL, 7ULL, 103ULL}) {
    const Instance instance = testing::make_varied_instance(seed);
    for (const char* name : {"alg", "maxweight", "fifo", "islip", "random", "rotor"}) {
      const PolicyFactory policy = named_policy(name);
      auto d0 = policy.dispatcher();
      auto s0 = policy.scheduler(instance.topology());
      const RunResult plain = simulate(instance, *d0, *s0, {});
      auto d1 = policy.dispatcher();
      auto s1 = policy.scheduler(instance.topology());
      EngineOptions audited;
      audited.audit = true;
      const RunResult checked = simulate(instance, *d1, *s1, audited);
      EXPECT_EQ(plain.total_cost, checked.total_cost) << name << " seed " << seed;
      EXPECT_EQ(plain.makespan, checked.makespan) << name << " seed " << seed;
    }
  }
}

TEST(InvariantAuditor, PassesUnderEveryEngineExtension) {
  const Instance instance = testing::make_varied_instance(101);
  EngineOptions speedup;
  speedup.speedup_rounds = 2;
  EngineOptions capacity;
  capacity.endpoint_capacity = 2;
  EngineOptions reconfig;
  reconfig.reconfig_delay = 1;
  for (EngineOptions options : {speedup, capacity, reconfig}) {
    options.audit = true;
    ImpactDispatcher dispatcher;
    StableMatchingScheduler scheduler;
    EXPECT_TRUE(all_delivered(instance, simulate(instance, dispatcher, scheduler, options)));
  }
}

/// Selects the first two candidates regardless of conflicts -- on an
/// instance where both pend on one transmitter, an infeasible "matching".
class DoubleBookingScheduler final : public SchedulePolicy {
 public:
  void select(const Engine&, Time, const std::vector<Candidate>& candidates,
              Selection& out) override {
    if (!candidates.empty()) out.push(0);
    if (candidates.size() >= 2) out.push(1);
  }
};

class DuplicateIndexScheduler final : public SchedulePolicy {
 public:
  void select(const Engine&, Time, const std::vector<Candidate>& candidates,
              Selection& out) override {
    if (!candidates.empty()) {
      out.push(0);
      out.push(0);
    }
  }
};

class OutOfRangeScheduler final : public SchedulePolicy {
 public:
  void select(const Engine&, Time, const std::vector<Candidate>& candidates,
              Selection& out) override {
    out.push(candidates.size() + 7);
  }
};

/// One source feeding one transmitter with edges to two receivers, two
/// same-step packets: any two-element selection double-books transmitter 0.
Instance shared_transmitter_instance() {
  Topology topology;
  const NodeIndex source = topology.add_sources(1);
  const NodeIndex destinations = topology.add_destinations(2);
  const NodeIndex transmitter = topology.add_transmitter(source);
  const NodeIndex r0 = topology.add_receiver(destinations);
  const NodeIndex r1 = topology.add_receiver(destinations + 1);
  topology.add_edge(transmitter, r0, 1);
  topology.add_edge(transmitter, r1, 1);
  Instance instance(std::move(topology), {});
  instance.add_packet(1, 2.0, source, destinations);
  instance.add_packet(1, 1.0, source, destinations + 1);
  return instance;
}

TEST(InvariantAuditor, CatchesInfeasibleMatchingBeforeTheEngine) {
  const Instance instance = shared_transmitter_instance();
  ImpactDispatcher dispatcher;
  DoubleBookingScheduler scheduler;
  EngineOptions audited;
  audited.audit = true;
  // With the audit on, the independent validator fires first and the
  // violation surfaces as AuditFailure, not the engine's logic_error.
  EXPECT_THROW(simulate(instance, dispatcher, scheduler, audited), AuditFailure);
}

TEST(InvariantAuditor, CatchesDuplicateAndOutOfRangeSelections) {
  const Instance instance = shared_transmitter_instance();
  {
    ImpactDispatcher dispatcher;
    DuplicateIndexScheduler scheduler;
    EngineOptions audited;
    audited.audit = true;
    EXPECT_THROW(simulate(instance, dispatcher, scheduler, audited), AuditFailure);
  }
  {
    ImpactDispatcher dispatcher;
    OutOfRangeScheduler scheduler;
    EngineOptions audited;
    audited.audit = true;
    EXPECT_THROW(simulate(instance, dispatcher, scheduler, audited), AuditFailure);
  }
}

TEST(InvariantAuditor, WithoutAuditTheEngineBackstopStillThrows) {
  const Instance instance = shared_transmitter_instance();
  ImpactDispatcher dispatcher;
  DoubleBookingScheduler scheduler;
  try {
    simulate(instance, dispatcher, scheduler, {});
    FAIL() << "engine accepted an infeasible matching";
  } catch (const AuditFailure&) {
    FAIL() << "no auditor is attached without EngineOptions::audit";
  } catch (const std::logic_error&) {
    SUCCEED();  // the engine's own validation
  }
}

// -------------------------------------------------------- differential --

TEST(DifferentialChecker, CleanOnGoldenInstanceFamilies) {
  for (const std::uint64_t seed : {1ULL, 5ULL, 103ULL}) {
    const Instance instance = testing::make_varied_instance(seed);
    check::DiffOptions options;
    options.policies = {"alg", "maxweight", "fifo", "random"};
    const check::DiffReport report = check::check_instance(instance, options);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ":\n" << report.to_string();
    EXPECT_GT(report.checks, 4u);
  }
}

TEST(DifferentialChecker, ReplaysMigratoryVariantsOnTheStreamingEngine) {
  // Restricted migration runs on either engine constructor, so a
  // redispatch_queued variant gets the batch-vs-stream replay too: one
  // replay check per base policy and one per variant policy.
  for (const std::uint64_t seed : {101ULL, 103ULL}) {  // kMigrationGoldens' seeds
    const Instance instance = testing::make_varied_instance(seed);
    check::DiffOptions options;
    options.policies = {"jsq"};
    options.variants = {EngineOptions{.redispatch_queued = true}};
    options.check_stream_equivalence = false;
    const std::size_t unreplayed = check::check_instance(instance, options).checks;
    options.check_stream_equivalence = true;
    const check::DiffReport report = check::check_instance(instance, options);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ":\n" << report.to_string();
    EXPECT_EQ(report.checks - unreplayed,
              options.policies.size() + options.variant_policies.size())
        << "seed " << seed;
  }
}

TEST(DifferentialChecker, BruteForceAnchorsTheFigure1Instance) {
  // Tiny enough for the exhaustive optimum: every oracle engages.
  const check::DiffReport report = check::check_instance(figure1_instance());
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_TRUE(report.skipped.empty());
}

TEST(DifferentialChecker, FlagsAnInvalidInstance) {
  Topology topology;
  topology.add_sources(1);
  topology.add_destinations(1);  // no transmitters/receivers, no links
  Instance instance(std::move(topology), {});
  instance.add_packet(1, 1.0, 0, 0);  // unroutable
  const check::DiffReport report = check::check_instance(instance);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string(), "no violations");
}

TEST(DifferentialChecker, StreamSpecCleanAndMeasuredConsistent) {
  StreamSpec spec = random_stream_spec(11);
  spec.warmup_packets = 20;
  spec.measure_packets = 250;
  check::DiffOptions options;
  options.policies = {"alg", "fifo"};
  const check::DiffReport report = check::check_stream(spec, spec.base_seed, options);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(DifferentialChecker, RejectsMostlyFixedLayerSpecsAsSkipped) {
  // Nearly every pair is fixed-layer only: rho calibration must refuse
  // (zero-demand guard), landing in `skipped`, never in `violations`.
  StreamSpec spec;
  spec.topology.two_tier.racks = 6;
  spec.topology.two_tier.lasers_per_rack = 1;
  spec.topology.two_tier.photodetectors_per_rack = 1;
  spec.topology.two_tier.density = 0.02;
  spec.topology.two_tier.fixed_link_delay = 6;
  spec.measure_packets = 100;
  const check::DiffReport report = check::check_stream(spec, 1);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_FALSE(report.skipped.empty());
}

// ------------------------------------------------------ fuzz entry points --

TEST(FuzzSeeds, BatchAndStreamSeedChecksAreClean) {
  for (const std::uint64_t seed : {2ULL, 9ULL}) {
    const check::DiffReport batch = check::check_scenario_seed(seed);
    EXPECT_TRUE(batch.ok()) << "batch seed " << seed << ":\n" << batch.to_string();
    const check::DiffReport stream = check::check_stream_seed(seed, 200);
    EXPECT_TRUE(stream.ok()) << "stream seed " << seed << ":\n" << stream.to_string();
  }
}

TEST(FuzzSeeds, SpecDerivationIsDeterministic) {
  const ScenarioSpec a = random_scenario_spec(42);
  const ScenarioSpec b = random_scenario_spec(42);
  EXPECT_EQ(a.workload.num_packets, b.workload.num_packets);
  EXPECT_EQ(a.topology.seed_salt, b.topology.seed_salt);
  const Instance ia = ScenarioRunner(a).instance(a.base_seed);
  const Instance ib = ScenarioRunner(b).instance(b.base_seed);
  EXPECT_EQ(ia.to_string(), ib.to_string());
  EXPECT_NE(ia.to_string(), ScenarioRunner(random_scenario_spec(43))
                                .instance(43)
                                .to_string());
}

TEST(FuzzSeeds, TruncateKeepsAValidPrefix) {
  const Instance full = testing::make_varied_instance(7);
  const Instance prefix = check::truncate_packets(full, 5);
  ASSERT_EQ(prefix.num_packets(), 5u);
  EXPECT_TRUE(prefix.validate().empty());
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(prefix.packets()[i].id, full.packets()[i].id);
    EXPECT_EQ(prefix.packets()[i].arrival, full.packets()[i].arrival);
  }
  EXPECT_EQ(check::truncate_packets(full, 10'000).num_packets(), full.num_packets());
}

// ----------------------------------------------------------- minimizer --

TEST(Minimizer, BisectionFindsTheMonotoneThreshold) {
  int probes = 0;
  const std::size_t smallest = check::bisect_smallest_failing(1000, [&](std::size_t n) {
    ++probes;
    return n >= 137;
  });
  EXPECT_EQ(smallest, 137u);
  EXPECT_LT(probes, 14);  // logarithmic, not linear
}

TEST(Minimizer, BisectionNeverSettlesOnAPassingSize) {
  // Non-monotone failure: the result may overshoot the true minimum but
  // must itself fail (the documented invariant).
  const auto fails = [](std::size_t n) { return n >= 3 && n != 5 && n != 6; };
  const std::size_t smallest = check::bisect_smallest_failing(64, fails);
  EXPECT_TRUE(fails(smallest));
  EXPECT_EQ(check::bisect_smallest_failing(1, [](std::size_t) { return true; }), 1u);
}

// Minimized reproducers from rdcn_fuzz land below (see tools/rdcn_fuzz).

}  // namespace
}  // namespace rdcn

// Regression tests for the indexed engine core:
//  * determinism -- the per-edge queues and their head list must
//    reproduce the pre-refactor (rebuild-and-sort) engine's schedules
//    bit-for-bit; the golden costs below were captured from the seed
//    engine on the make_varied_instance family;
//  * the SchedulePolicy contract -- head candidates arrive priority-sorted
//    at every round with consistent remaining counts, and the impact index
//    agrees with the queues;
//  * EngineOptions edge interactions (reconfig_delay x endpoint_capacity,
//    reconfig_delay x redispatch_queued), and the charging audit's refusal
//    of runs outside the analysis model.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <set>

#include "core/alg.hpp"
#include "core/charging.hpp"
#include "helpers.hpp"
#include "net/builders.hpp"
#include "run/policies.hpp"
#include "sim/metrics.hpp"

namespace rdcn {
namespace {

using testing::mix64;
using testing::schedule_hash;

struct Golden {
  std::uint64_t seed;
  double total_cost;
  Time makespan;
};

// Costs captured from the seed engine (pre-refactor) at commit b07bcdf,
// %.17g.
constexpr Golden kSeedEngineGoldens[] = {
    {1ULL, 136, 12},
    {2ULL, 146.5, 17},
    {3ULL, 16, 6},
    {4ULL, 263, 20},
    {5ULL, 297.49999999999994, 12},
    {7ULL, 152.5, 8},
    {11ULL, 163.5, 11},
    {101ULL, 2940.5, 32},
    {103ULL, 5376.333333333333, 56},
    {117ULL, 5024, 42},
};

/// FNV-1a over the bit patterns of the floating-point charges, in packet
/// order.
std::uint64_t charge_hash(const std::vector<double>& charges) {
  std::uint64_t h = 1469598103934665603ULL;
  for (double charge : charges) h = mix64(h, std::bit_cast<std::uint64_t>(charge));
  return h;
}

/// FNV-1a over each exact charge's numerator and denominator, in packet
/// order.
std::uint64_t exact_charge_hash(const std::vector<Rational>& charges) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Rational& charge : charges) {
    h = mix64(h, static_cast<std::uint64_t>(charge.numerator()));
    h = mix64(h, static_cast<std::uint64_t>(charge.denominator()));
  }
  return h;
}

struct ChargingGolden {
  std::uint64_t seed;
  std::uint64_t charge_hash;
  double total_charge;
  double max_overcharge;
  double cover_gap;
  std::uint64_t exact_charge_hash;  ///< every kSeedEngineGoldens seed has integer weights
};

// audit_charging / audit_charging_exact on run_alg's schedule for every
// kSeedEngineGoldens seed, captured (%.17g) while the audit still read an
// engine-recorded per-step trace; reading the blockers off the schedule
// reproduces them bit for bit.
constexpr ChargingGolden kChargingGoldens[] = {
    {1ULL, 0xc44be156b151c3e8ULL, 136, 0, 0, 0xfa08843e4ebe0036ULL},
    {2ULL, 0x3255a132d3ec45dfULL, 146.5, 0, 0, 0xbcafc769335b038aULL},
    {3ULL, 0xcea6329bdcba6763ULL, 16, 0, 0, 0x085ddd38fb9756e0ULL},
    {4ULL, 0xe7e21e3553c414dfULL, 263, 0, 0, 0xb50d5988f2ed4b94ULL},
    {5ULL, 0xbb5b0ca6c2515c9aULL, 297.5, 0, 5.6843418860808015e-14, 0x9cfd8a8859714be7ULL},
    {7ULL, 0xfffcfc1673e4511fULL, 152.5, 0, 0, 0xe29f1104d9fed946ULL},
    {11ULL, 0x6559d3537a69ddfdULL, 163.5, 0, 0, 0xb57d5b196a2ea67eULL},
    {101ULL, 0xe4daa1833270130dULL, 2940.5, 0, 0, 0x39dc17ef7e5a6d5fULL},
    {103ULL, 0x3532893899490e50ULL, 5376.3333333333339, 8.5265128291212022e-14,
     9.0949470177292824e-13, 0x487f2f536bb5f5fdULL},
    {117ULL, 0x00b7b3ddde65d3d1ULL, 5024, 0, 0, 0x2eb4fa77ec2c7a86ULL},
};

TEST(EngineRegression, ReproducesSeedEngineCosts) {
  for (const Golden& golden : kSeedEngineGoldens) {
    const Instance instance = testing::make_varied_instance(golden.seed);
    const RunResult run = run_alg(instance);
    EXPECT_NEAR(run.total_cost, golden.total_cost, 1e-9 * (1.0 + golden.total_cost))
        << "seed " << golden.seed;
    EXPECT_EQ(run.makespan, golden.makespan) << "seed " << golden.seed;
  }
}

TEST(EngineRegression, GoldensPassThePerStepAudit) {
  // The audit hook is observation-only: with EngineOptions::audit on, the
  // check/ auditor re-derives matching feasibility, conservation and
  // completion accounting at every step (throwing AuditFailure on any
  // violation) while the golden costs must still reproduce bit-for-bit.
  for (const Golden& golden : kSeedEngineGoldens) {
    const Instance instance = testing::make_varied_instance(golden.seed);
    EngineOptions options;
    options.audit = true;
    const RunResult run = run_alg(instance, options);
    EXPECT_NEAR(run.total_cost, golden.total_cost, 1e-9 * (1.0 + golden.total_cost))
        << "seed " << golden.seed;
    EXPECT_EQ(run.makespan, golden.makespan) << "seed " << golden.seed;
  }
}

TEST(EngineRegression, ChargingAuditsMatchGoldens) {
  // Pins the charging auditor's output: every packet's charge (bit for
  // bit, and exactly in rational arithmetic) and the audit's summaries.
  ASSERT_EQ(std::size(kChargingGoldens), std::size(kSeedEngineGoldens));
  for (const ChargingGolden& golden : kChargingGoldens) {
    const Instance instance = testing::make_varied_instance(golden.seed);
    const RunResult run = run_alg(instance);
    const ChargingAudit audit = audit_charging(instance, run);
    EXPECT_EQ(charge_hash(audit.charge), golden.charge_hash) << "seed " << golden.seed;
    EXPECT_EQ(audit.total_charge, golden.total_charge) << "seed " << golden.seed;
    EXPECT_EQ(audit.max_overcharge, golden.max_overcharge) << "seed " << golden.seed;
    EXPECT_EQ(audit.cover_gap, golden.cover_gap) << "seed " << golden.seed;
    ASSERT_TRUE(instance.has_integer_weights()) << "seed " << golden.seed;
    const ExactChargingAudit exact = audit_charging_exact(instance, run);
    EXPECT_EQ(exact_charge_hash(exact.charge), golden.exact_charge_hash)
        << "seed " << golden.seed;
    EXPECT_TRUE(exact.charges_cover_cost) << "seed " << golden.seed;
    EXPECT_TRUE(exact.within_alpha) << "seed " << golden.seed;
  }
}

TEST(EngineRegression, RepeatedRunsAreIdentical) {
  for (const std::uint64_t seed : {2ULL, 103ULL}) {
    const Instance instance = testing::make_varied_instance(seed);
    const RunResult a = run_alg(instance);
    const RunResult b = run_alg(instance);
    EXPECT_EQ(a.total_cost, b.total_cost);
    EXPECT_EQ(a.makespan, b.makespan);
    for (std::size_t i = 0; i < instance.num_packets(); ++i) {
      EXPECT_EQ(a.outcomes[i].chunk_transmit_steps, b.outcomes[i].chunk_transmit_steps);
    }
  }
}

// --------------------------- all-policy schedule goldens (Selection API) --

struct PolicyGolden {
  const char* policy;
  std::uint64_t seed;
  double total_cost;
  Time makespan;
  std::uint64_t hash;
};

// Captured from the Selection-API engine at PR 5; `alg`'s rows reproduce
// the pre-refactor kSeedEngineGoldens costs above, pinning the whole
// registry (batch AND streamed, audited) to these schedules. `random`'s
// two rows were re-pinned when select() moved from the whole backlog to
// the per-edge head list: its shuffle now ranges over the heads only, so
// its draws differ; the other eleven policies stayed bit-identical.
constexpr PolicyGolden kPolicyGoldens[] = {
    {"alg", 101ULL, 2940.5, 32, 0x0f32fd3947ee6634ULL},
    {"maxweight", 101ULL, 2969, 32, 0x29d8e70a73f91256ULL},
    {"islip", 101ULL, 4520, 32, 0x5f90196ba4dad009ULL},
    {"rotor", 101ULL, 52772, 246, 0x00ff4787dbd40ff4ULL},
    {"random", 101ULL, 3825.5, 32, 0x136416f9920e2f87ULL},
    {"fifo", 101ULL, 4506, 32, 0x670000fa8941651aULL},
    {"impact", 101ULL, 2940.5, 32, 0x0f32fd3947ee6634ULL},
    {"random-dispatch", 101ULL, 3148.5, 32, 0x5ba2538fbcdf8783ULL},
    {"round-robin", 101ULL, 3063.5, 32, 0xd7e45cd57a739e0bULL},
    {"jsq", 101ULL, 2970, 32, 0xe9f822b46830a417ULL},
    {"min-delay", 101ULL, 3323.5, 36, 0xf2d5b06e0aa09cd9ULL},
    {"direct-only", 101ULL, 3235.5, 36, 0xa4be27d60f580159ULL},
    {"alg", 103ULL, 5376.333333333333, 56, 0x495a38077d357f3dULL},
    {"maxweight", 103ULL, 5398.4999999999991, 56, 0xf31533743d25360fULL},
    {"islip", 103ULL, 7510.333333333333, 56, 0x528356261f84554bULL},
    {"rotor", 103ULL, 87168, 522, 0x7a7e26a03b339efaULL},
    {"random", 103ULL, 6490.0000000000009, 56, 0x7a0d4ecc9f53bc70ULL},
    {"fifo", 103ULL, 7855.5, 56, 0xf07c51e6d8093034ULL},
    {"impact", 103ULL, 5376.333333333333, 56, 0x495a38077d357f3dULL},
    {"random-dispatch", 103ULL, 6045, 56, 0xa0023c8884b61ef5ULL},
    {"round-robin", 103ULL, 5539.1666666666661, 56, 0x7dcfa62ca7116390ULL},
    {"jsq", 103ULL, 5448.7499999999991, 56, 0xd36dd52f18d56ec2ULL},
    {"min-delay", 103ULL, 6407.5, 56, 0xbad24f4161eb9e68ULL},
    {"direct-only", 103ULL, 6407.5, 56, 0xbad24f4161eb9e68ULL},
};

TEST(EngineRegression, AllRegistryPoliciesMatchScheduleGoldensBatch) {
  std::map<std::uint64_t, Instance> instances;
  for (const PolicyGolden& golden : kPolicyGoldens) {
    auto it = instances.find(golden.seed);
    if (it == instances.end()) {
      it = instances.emplace(golden.seed, testing::make_varied_instance(golden.seed)).first;
    }
    const PolicyFactory policy = named_policy(golden.policy);
    auto dispatcher = policy.dispatcher();
    auto scheduler = policy.scheduler(it->second.topology());
    EngineOptions options;
    options.audit = true;
    const RunResult run = simulate(it->second, *dispatcher, *scheduler, options);
    EXPECT_NEAR(run.total_cost, golden.total_cost, 1e-9 * (1.0 + golden.total_cost))
        << golden.policy << " seed " << golden.seed;
    EXPECT_EQ(run.makespan, golden.makespan) << golden.policy << " seed " << golden.seed;
    EXPECT_EQ(schedule_hash(run.outcomes), golden.hash)
        << golden.policy << " seed " << golden.seed;
  }
}

TEST(EngineRegression, ProbeEnabledRunsReproduceScheduleGoldens) {
  // ISSUE 7: the observability probe only observes -- enabling it (with an
  // event ring small enough to wrap) must reproduce every policy's golden
  // schedule hash bit-for-bit, while the report itself comes back coherent.
  std::map<std::uint64_t, Instance> instances;
  for (const PolicyGolden& golden : kPolicyGoldens) {
    auto it = instances.find(golden.seed);
    if (it == instances.end()) {
      it = instances.emplace(golden.seed, testing::make_varied_instance(golden.seed)).first;
    }
    const PolicyFactory policy = named_policy(golden.policy);
    auto dispatcher = policy.dispatcher();
    auto scheduler = policy.scheduler(it->second.topology());
    EngineOptions options;
    options.audit = true;
    options.probe.enabled = true;
    options.probe.event_capacity = 64;
    const RunResult run = simulate(it->second, *dispatcher, *scheduler, options);
    EXPECT_EQ(schedule_hash(run.outcomes), golden.hash)
        << golden.policy << " seed " << golden.seed << ": probe perturbed the schedule";
    EXPECT_EQ(run.makespan, golden.makespan) << golden.policy << " seed " << golden.seed;
    EXPECT_NEAR(run.total_cost, golden.total_cost, 1e-9 * (1.0 + golden.total_cost))
        << golden.policy << " seed " << golden.seed;
    ASSERT_TRUE(run.probe.enabled) << golden.policy;
    const auto packets = static_cast<std::uint64_t>(it->second.num_packets());
    EXPECT_EQ(run.probe.counters[static_cast<std::size_t>(Counter::PacketsRetired)],
              packets)
        << golden.policy << " seed " << golden.seed;
  }
}

TEST(EngineRegression, AllRegistryPoliciesMatchScheduleGoldensStreamed) {
  // The same schedules must come out of the streaming engine mode fed the
  // recorded arrival sequence (audited): retired outcomes, reassembled in
  // id order, hash to the same golden fingerprints.
  std::map<std::uint64_t, Instance> instances;
  for (const PolicyGolden& golden : kPolicyGoldens) {
    auto it = instances.find(golden.seed);
    if (it == instances.end()) {
      it = instances.emplace(golden.seed, testing::make_varied_instance(golden.seed)).first;
    }
    const Instance& instance = it->second;
    const PolicyFactory policy = named_policy(golden.policy);
    auto dispatcher = policy.dispatcher();
    auto scheduler = policy.scheduler(instance.topology());
    EngineOptions options;
    options.audit = true;
    options.max_steps = default_max_steps(instance, 0);
    std::vector<PacketOutcome> outcomes(instance.num_packets());
    Engine engine(instance.topology(), *dispatcher, *scheduler, options,
                  [&outcomes](RetiredPacket&& packet) {
                    outcomes[static_cast<std::size_t>(packet.id)] = std::move(packet.outcome);
                  });
    const auto& packets = instance.packets();
    std::size_t next = 0;
    while (next < packets.size() || engine.busy()) {
      const Time* upcoming = next < packets.size() ? &packets[next].arrival : nullptr;
      engine.begin_step(upcoming);
      while (next < packets.size() && packets[next].arrival == engine.now()) {
        engine.inject(packets[next]);
        ++next;
      }
      engine.finish_step();
    }
    EXPECT_EQ(schedule_hash(outcomes), golden.hash)
        << golden.policy << " seed " << golden.seed;
    EXPECT_EQ(engine.aggregates().makespan, golden.makespan)
        << golden.policy << " seed " << golden.seed;
    EXPECT_NEAR(engine.aggregates().total_cost, golden.total_cost,
                1e-9 * (1.0 + golden.total_cost))
        << golden.policy << " seed " << golden.seed;
  }
}

// Restricted-migration schedules (EngineOptions::redispatch_queued),
// captured before the queued-redispatch and stage-requeue paths merged.
constexpr PolicyGolden kMigrationGoldens[] = {
    {"alg", 101ULL, 2932.5, 32, 0x4af4f9b31813f917ULL},
    {"jsq", 101ULL, 2963, 32, 0xc6524b909f119d06ULL},
    {"alg", 103ULL, 5246, 56, 0x2fbc04e6b68f3cffULL},
    {"jsq", 103ULL, 5356.9999999999991, 56, 0xb307eb9b3d22d948ULL},
};

TEST(EngineRegression, RedispatchQueuedMatchesScheduleGoldens) {
  for (const PolicyGolden& golden : kMigrationGoldens) {
    const Instance instance = testing::make_varied_instance(golden.seed);
    const PolicyFactory policy = named_policy(golden.policy);
    auto dispatcher = policy.dispatcher();
    auto scheduler = policy.scheduler(instance.topology());
    EngineOptions options;
    options.redispatch_queued = true;
    options.audit = true;
    const RunResult run = simulate(instance, *dispatcher, *scheduler, options);
    EXPECT_NEAR(run.total_cost, golden.total_cost, 1e-9 * (1.0 + golden.total_cost))
        << golden.policy << " seed " << golden.seed;
    EXPECT_EQ(run.makespan, golden.makespan) << golden.policy << " seed " << golden.seed;
    EXPECT_EQ(schedule_hash(run.outcomes), golden.hash)
        << golden.policy << " seed " << golden.seed;
  }
}

struct StagedGolden {
  const char* policy;
  std::uint64_t seed;
  EdgeIndex edge;
  std::uint64_t hash;
  std::uint64_t dropped;
  std::uint64_t requeued;
};

// A batch run(schedule) that kills `edge` at step 4 under
// DeadPolicy::Requeue and restores it at step 14; the edges are picked so
// the kill strands both untouched packets (requeued) and mid-transmit ones
// (dropped). Captured before the queued-redispatch and stage-requeue
// paths merged.
constexpr StagedGolden kStagedGoldens[] = {
    {"alg", 101ULL, 44, 0xfde31c53f2d95bcdULL, 1, 1},
    {"jsq", 101ULL, 44, 0x2e4b02627d58ec93ULL, 1, 1},
    {"alg", 101ULL, 8, 0x62b606a84fa4aeb2ULL, 0, 6},
    {"alg", 103ULL, 24, 0x18e337409814baa8ULL, 2, 1},
    {"jsq", 103ULL, 24, 0xc57cc371aa54d406ULL, 2, 1},
};

TEST(EngineRegression, StagedBatchRunMatchesScheduleGoldens) {
  for (const StagedGolden& golden : kStagedGoldens) {
    std::vector<TimedMutation> schedule(2);
    schedule[0].at = 4;
    schedule[0].mutation.kill_edges = {golden.edge};
    schedule[0].mutation.dead_policy = DeadPolicy::Requeue;
    schedule[1].at = 14;
    schedule[1].mutation.restore_edges = {golden.edge};
    const Instance instance = testing::make_varied_instance(golden.seed);
    const PolicyFactory policy = named_policy(golden.policy);
    auto dispatcher = policy.dispatcher();
    auto scheduler = policy.scheduler(instance.topology());
    EngineOptions options;
    options.audit = true;
    Engine engine(instance, *dispatcher, *scheduler, options);
    const RunResult run = engine.run(schedule);
    const auto dropped = static_cast<std::uint64_t>(
        std::count_if(run.outcomes.begin(), run.outcomes.end(),
                      [](const PacketOutcome& o) { return o.dropped; }));
    EXPECT_EQ(schedule_hash(run.outcomes), golden.hash)
        << golden.policy << " seed " << golden.seed;
    EXPECT_EQ(dropped, golden.dropped) << golden.policy << " seed " << golden.seed;
    EXPECT_EQ(engine.packets_dropped(), golden.dropped)
        << golden.policy << " seed " << golden.seed;
    EXPECT_EQ(engine.packets_requeued(), golden.requeued)
        << golden.policy << " seed " << golden.seed;
  }
}

/// Delegating scheduler that asserts the engine's head-list contract; it
/// forwards the wrapped scheduler's head declaration.
class ContractCheckingScheduler final : public SchedulePolicy {
 public:
  void select(const Engine& engine, Time now, const std::vector<Candidate>& candidates,
              Selection& out) override {
    // The engine lists what this wrapper declares: ALG's priority heads,
    // one per non-empty edge, in chunk priority order.
    EXPECT_EQ(engine.head_kinds(), HeadKinds::Priority);
    EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end(),
                               [](const Candidate& a, const Candidate& b) {
                                 return chunk_higher_priority(a, b);
                               }));
    std::set<EdgeIndex> edges;
    for (const Candidate& c : candidates) EXPECT_TRUE(edges.insert(c.edge).second);
    EXPECT_EQ(&candidates, &engine.head_candidates());
    EXPECT_TRUE(out.empty());  // the engine hands the scratch cleared
    const ActiveEndpoints& active = engine.active_endpoints(candidates);
    for (const Candidate& c : candidates) {
      const ReconfigEdge& edge = engine.topology().edge(c.edge);
      EXPECT_GT(c.remaining, 0);
      EXPECT_LE(c.remaining, edge.delay);
      EXPECT_EQ(c.transmitter, edge.transmitter);
      EXPECT_EQ(c.receiver, edge.receiver);
      // The active-endpoint remap round-trips for every candidate endpoint.
      const auto t_rank = static_cast<std::size_t>(active.transmitter_rank(c.transmitter));
      const auto r_rank = static_cast<std::size_t>(active.receiver_rank(c.receiver));
      ASSERT_LT(t_rank, active.num_transmitters());
      ASSERT_LT(r_rank, active.num_receivers());
      EXPECT_EQ(active.transmitters[t_rank], c.transmitter);
      EXPECT_EQ(active.receivers[r_rank], c.receiver);
    }
    // The impact index is derived from the edge queues alone.
    std::map<NodeIndex, std::int64_t> transmitter_chunks;
    std::size_t pending = 0;
    engine.for_each_pending([&](const Candidate& c) {
      transmitter_chunks[c.transmitter] += c.remaining;
      ++pending;
    });
    EXPECT_EQ(pending, engine.pending_count());
    for (const auto& [t, chunks] : transmitter_chunks) {
      EXPECT_EQ(engine.impact_index().transmitter_chunks(t), chunks);
    }
    ++rounds_checked;
    inner_.select(engine, now, candidates, out);
  }
  HeadKinds heads() const noexcept override { return inner_.heads(); }

  int rounds_checked = 0;

 private:
  StableMatchingScheduler inner_;
};

TEST(EngineRegression, HeadListStaysSortedAndConsistent) {
  const Instance instance = testing::make_varied_instance(103);
  ImpactDispatcher dispatcher;
  ContractCheckingScheduler scheduler;
  const RunResult run = simulate(instance, dispatcher, scheduler, {});
  EXPECT_TRUE(all_delivered(instance, run));
  EXPECT_GT(scheduler.rounds_checked, 10);
}

TEST(EngineRegression, ContractHoldsUnderMigrationAndCapacity) {
  const Instance instance = testing::make_varied_instance(101);
  {
    ImpactDispatcher dispatcher;
    ContractCheckingScheduler scheduler;
    EngineOptions options;
    options.redispatch_queued = true;
    options.audit = true;  // the auditor's re-dispatch ledger path
    EXPECT_TRUE(all_delivered(instance, simulate(instance, dispatcher, scheduler, options)));
  }
  {
    ImpactDispatcher dispatcher;
    ContractCheckingScheduler scheduler;
    EngineOptions options;
    options.endpoint_capacity = 3;
    options.audit = true;
    EXPECT_TRUE(all_delivered(instance, simulate(instance, dispatcher, scheduler, options)));
  }
}

// ------------------------------------------ EngineOptions interactions --

TEST(EngineOptionsMatrix, ReconfigDelayRequiresUnitCapacity) {
  const Instance instance = figure2_instance_pi();
  ImpactDispatcher dispatcher;
  StableMatchingScheduler scheduler;
  EngineOptions options;
  options.reconfig_delay = 2;
  options.endpoint_capacity = 2;
  EXPECT_THROW(Engine(instance, dispatcher, scheduler, options), std::invalid_argument);
  // Each extension alone is accepted.
  options.endpoint_capacity = 1;
  EXPECT_NO_THROW(Engine(instance, dispatcher, scheduler, options));
  options.reconfig_delay = 0;
  options.endpoint_capacity = 2;
  EXPECT_NO_THROW(Engine(instance, dispatcher, scheduler, options));
}

TEST(ChargingAudit, RefusesRunsWhereAnEndpointTransmitsTwiceInAStep) {
  // Speedup 2: the lone packet's two chunks cross its one edge in step 1,
  // so its transmitter carries two chunks in one step.
  {
    Topology g;
    g.add_sources(1);
    g.add_destinations(1);
    g.add_edge(g.add_transmitter(0), g.add_receiver(0), 2);
    Instance instance(std::move(g), {});
    instance.add_packet(1, 1.0, 0, 0);
    const RunResult run = run_alg(instance, {.speedup_rounds = 2});
    ASSERT_EQ(run.outcomes[0].chunk_transmit_steps, (ChunkSteps{1, 1}));
    EXPECT_THROW(audit_charging(instance, run), std::invalid_argument);
    EXPECT_THROW(audit_charging_exact(instance, run), std::invalid_argument);
    // The same instance at unit speed is in the analysis model.
    EXPECT_NO_THROW(audit_charging(instance, run_alg(instance)));
  }
  // Capacity 2: one transmitter reaches two racks, and two packets arrive
  // together for them; the transmitter carries both in step 1.
  {
    Topology g;
    g.add_sources(1);
    g.add_destinations(2);
    const NodeIndex t = g.add_transmitter(0);
    g.add_edge(t, g.add_receiver(0), 1);
    g.add_edge(t, g.add_receiver(1), 1);
    Instance instance(std::move(g), {});
    instance.add_packet(1, 1.0, 0, 0);
    instance.add_packet(1, 1.0, 0, 1);
    const RunResult run = run_alg(instance, {.endpoint_capacity = 2});
    ASSERT_EQ(run.outcomes[0].chunk_transmit_steps, (ChunkSteps{1}));
    ASSERT_EQ(run.outcomes[1].chunk_transmit_steps, (ChunkSteps{1}));
    EXPECT_THROW(audit_charging(instance, run), std::invalid_argument);
    EXPECT_THROW(audit_charging_exact(instance, run), std::invalid_argument);
    EXPECT_NO_THROW(audit_charging(instance, run_alg(instance)));
  }
}

TEST(EngineOptionsMatrix, ReconfigDelayAndMigrationCompose) {
  // Both extensions together: queued packets may re-route while endpoints
  // retune; delivery and accounting must survive the interaction.
  for (const std::uint64_t seed : {1ULL, 4ULL}) {
    const Instance instance = testing::make_varied_instance(seed);
    ImpactDispatcher dispatcher;
    StableMatchingScheduler scheduler;
    EngineOptions options;
    options.reconfig_delay = 2;
    options.redispatch_queued = true;
    options.audit = true;
    const RunResult run = simulate(instance, dispatcher, scheduler, options);
    EXPECT_TRUE(all_delivered(instance, run)) << "seed " << seed;
    EXPECT_NEAR(run.total_cost, recompute_cost(instance, run), 1e-6);
  }
}

TEST(EngineOptionsMatrix, ReconfigDelayNeverBeatsFreeRetuning) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const Instance instance = testing::make_varied_instance(seed);
    ImpactDispatcher d0, d1;
    StableMatchingScheduler s0, s1;
    EngineOptions free_retune;
    EngineOptions delayed = free_retune;
    delayed.reconfig_delay = 3;
    const double base = simulate(instance, d0, s0, free_retune).total_cost;
    const double slowed = simulate(instance, d1, s1, delayed).total_cost;
    EXPECT_GE(slowed, base - 1e-9) << "seed " << seed;
  }
}

}  // namespace
}  // namespace rdcn

// Property tests for the engine's per-edge queues and the head list that
// SchedulePolicy::select receives. On random topology-zoo instances, under
// endpoint capacity 1 and 2, speedup 2, reconfiguration delay 1, a staged
// edge kill and a staged rack kill with DeadPolicy::Requeue, and restricted
// migration (the edge kill and migration re-insert older packets behind
// newer ones, and the zoo's integer weights make runs of equal chunk
// weight for them to land in):
//  * every round, each edge's queue, read through for_each_pending_on, is
//    sorted by the order the engine links for the scheduler's
//    declaration: chunk_higher_priority for Priority and Both, packet id
//    for Arrival;
//  * every round, the list is exactly the heads the scheduler declares
//    (SchedulePolicy::heads) of every non-empty edge, in that kind's
//    order: the priority heads by chunk_higher_priority for alg and
//    maxweight, the arrival heads by packet id for fifo, and both heads
//    (one entry when they coincide) by chunk_higher_priority for random;
//  * alg, fifo and maxweight select the same packets, in the same order,
//    as a second instance of the same policy run on the full pending list
//    rebuilt from the queues -- the list select() received before the
//    queues replaced it;
//  * behind a wrapper that forwards select() but not heads(), as a
//    tracing decorator does, alg, fifo and maxweight get the Both list and
//    still produce the bare policy's schedule.
// A hand-built case interleaves requeued and fresh packets of one chunk
// weight on a single edge, so a requeued packet lands inside a run.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "run/policies.hpp"
#include "run/random.hpp"
#include "run/scenario.hpp"
#include "sim/engine.hpp"

namespace rdcn {
namespace {

/// Checks that every edge's queue, as for_each_pending_on yields it, is
/// sorted by the order the engine links for its scheduler, and that the
/// queues hold every pending packet. Returns how many edges held two or
/// more packets.
int check_queue_orders(const Engine& engine, const std::string& label, Time now) {
  const bool by_id = engine.head_kinds() == HeadKinds::Arrival;
  std::vector<Candidate> queue;
  std::size_t pending = 0;
  int deep_edges = 0;
  for (EdgeIndex e = 0; e < engine.topology().num_edges(); ++e) {
    queue.clear();
    engine.for_each_pending_on(e, [&](const Candidate& c) { queue.push_back(c); });
    pending += queue.size();
    if (queue.size() >= 2) ++deep_edges;
    for (std::size_t i = 0; i + 1 < queue.size(); ++i) {
      const Candidate& a = queue[i];
      const Candidate& b = queue[i + 1];
      EXPECT_EQ(a.edge, e) << label;
      EXPECT_TRUE(by_id ? a.packet < b.packet : chunk_higher_priority(a, b))
          << label << " at step " << now << ": edge " << e << " holds packet " << a.packet
          << " (chunk weight " << a.chunk_weight << ", arrival " << a.arrival
          << ") before packet " << b.packet << " (chunk weight " << b.chunk_weight
          << ", arrival " << b.arrival << ")";
    }
  }
  EXPECT_EQ(pending, engine.pending_count()) << label << " at step " << now;
  return deep_edges;
}

/// Checks the head list against the queues and the wrapped policy's
/// declaration (which it forwards), then runs the wrapped policy on it
/// and, when given, a reference instance of the same policy on the full
/// list.
class HeadListChecker final : public SchedulePolicy {
 public:
  HeadListChecker(std::unique_ptr<SchedulePolicy> policy,
                  std::unique_ptr<SchedulePolicy> reference, std::string label)
      : policy_(std::move(policy)), reference_(std::move(reference)), label_(std::move(label)) {}

  HeadKinds heads() const noexcept override { return policy_->heads(); }

  void select(const Engine& engine, Time now, const std::vector<Candidate>& heads,
              Selection& out) override {
    deep_edges += check_queue_orders(engine, label_, now);
    if (on_round) on_round(engine);
    full_.clear();
    engine.for_each_pending([this](const Candidate& c) { full_.push_back(c); });
    std::sort(full_.begin(), full_.end(), chunk_higher_priority);
    ASSERT_EQ(full_.size(), engine.pending_count()) << label_;
    ASSERT_EQ(engine.head_kinds(), policy_->heads()) << label_;

    // Per edge: the first entry in priority order, and the earliest arrival.
    std::map<EdgeIndex, std::pair<Candidate, Candidate>> edge_heads;
    for (const Candidate& c : full_) {
      const auto [it, fresh] = edge_heads.emplace(c.edge, std::make_pair(c, c));
      Candidate& earliest = it->second.second;
      if (!fresh && (c.arrival < earliest.arrival ||
                     (c.arrival == earliest.arrival && c.packet < earliest.packet))) {
        earliest = c;
      }
    }
    const HeadKinds kinds = policy_->heads();
    std::vector<Candidate> expected;
    for (const auto& [edge, pair] : edge_heads) {
      if (kinds != HeadKinds::Arrival) expected.push_back(pair.first);
      if (kinds == HeadKinds::Arrival ||
          (kinds == HeadKinds::Both && pair.second.packet != pair.first.packet)) {
        expected.push_back(pair.second);
      }
    }
    if (kinds == HeadKinds::Arrival) {
      std::sort(expected.begin(), expected.end(),
                [](const Candidate& a, const Candidate& b) { return a.packet < b.packet; });
    } else {
      std::sort(expected.begin(), expected.end(), chunk_higher_priority);
    }

    EXPECT_LE(heads.size(), 2 * static_cast<std::size_t>(engine.topology().num_edges()))
        << label_;
    ASSERT_EQ(heads.size(), expected.size()) << label_ << " at step " << now;
    for (std::size_t i = 0; i < heads.size(); ++i) {
      const Candidate& got = heads[i];
      const Candidate& want = expected[i];
      ASSERT_EQ(got.packet, want.packet) << label_ << " at step " << now << ", entry " << i;
      EXPECT_EQ(got.edge, want.edge) << label_;
      EXPECT_EQ(got.transmitter, want.transmitter) << label_;
      EXPECT_EQ(got.receiver, want.receiver) << label_;
      EXPECT_EQ(got.chunk_weight, want.chunk_weight) << label_;
      EXPECT_EQ(got.arrival, want.arrival) << label_;
      EXPECT_EQ(got.remaining, want.remaining) << label_;
    }

    policy_->select(engine, now, heads, out);
    ++rounds;
    if (full_.size() > heads.size()) ++deep_rounds;
    if (!reference_) return;
    reference_out_.clear();
    reference_->select(engine, now, full_, reference_out_);
    ASSERT_EQ(out.size(), reference_out_.size()) << label_ << " at step " << now;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(heads[out.indices()[i]].packet, full_[reference_out_.indices()[i]].packet)
          << label_ << " at step " << now << ", pick " << i;
    }
  }

  int rounds = 0;
  int deep_rounds = 0;  ///< rounds where some packet queued behind its heads
  int deep_edges = 0;   ///< edges holding two or more packets, summed over rounds
  std::function<void(const Engine&)> on_round;  ///< called before each select

 private:
  std::unique_ptr<SchedulePolicy> policy_;
  std::unique_ptr<SchedulePolicy> reference_;  ///< null: list checks only
  std::string label_;
  std::vector<Candidate> full_;
  Selection reference_out_;
};

/// Forwards select() only, as perfbench's tracing decorator does, so the
/// engine lists the default HeadKinds::Both for the wrapped policy.
class SelectOnlyWrapper final : public SchedulePolicy {
 public:
  explicit SelectOnlyWrapper(std::unique_ptr<SchedulePolicy> inner) : inner_(std::move(inner)) {}

  void select(const Engine& engine, Time now, const std::vector<Candidate>& candidates,
              Selection& out) override {
    inner_->select(engine, now, candidates, out);
  }

 private:
  std::unique_ptr<SchedulePolicy> inner_;
};

/// Which stage mutation a variant applies at step 3 (DeadPolicy::Requeue)
/// and undoes at step 9.
enum class Kill { None, EveryOtherEdge, Rack };

struct Variant {
  const char* name;
  EngineOptions options;
  Kill kill = Kill::None;
};

std::vector<Variant> variants() {
  std::vector<Variant> list;
  list.push_back({"capacity1", {}});
  EngineOptions capacity2;
  capacity2.endpoint_capacity = 2;
  list.push_back({"capacity2", capacity2});
  EngineOptions speedup2;
  speedup2.speedup_rounds = 2;
  list.push_back({"speedup2", speedup2});
  EngineOptions delay1;
  delay1.reconfig_delay = 1;
  list.push_back({"reconfig_delay1", delay1});
  list.push_back({"staged_kill_requeue", {}, Kill::EveryOtherEdge});
  list.push_back({"staged_rack_kill_requeue", {}, Kill::Rack});
  EngineOptions migrate;
  migrate.redispatch_queued = true;
  list.push_back({"redispatch_queued", migrate});
  return list;
}

/// A zoo topology from the fuzz generator, with a denser workload than its
/// default so packets queue behind their edge's heads.
Instance zoo_instance(std::uint64_t seed) {
  ScenarioSpec spec = random_scenario_spec(seed);
  spec.workload.num_packets = 160;
  spec.workload.arrival_rate = 8.0;
  return ScenarioRunner(spec).instance(spec.base_seed);
}

/// Runs `scheduler` under `variant` with the invariant auditor on.
RunResult run_variant(const Instance& instance, const Variant& variant,
                      DispatchPolicy& dispatcher, SchedulePolicy& scheduler) {
  EngineOptions options = variant.options;
  options.audit = true;
  Engine engine(instance, dispatcher, scheduler, options);
  std::vector<TimedMutation> schedule;
  if (variant.kill != Kill::None) {
    // Every other edge, or rack 1, dies at step 3. Stranded packets with a
    // surviving parallel edge requeue onto it, behind newer packets; a
    // rack's stranded packets have none, so they leave for the fixed
    // layer or drop.
    schedule.resize(2);
    if (variant.kill == Kill::EveryOtherEdge) {
      for (EdgeIndex e = 0; e < instance.topology().num_edges(); e += 2) {
        schedule[0].mutation.kill_edges.push_back(e);
      }
      schedule[1].mutation.restore_edges = schedule[0].mutation.kill_edges;
    } else {
      schedule[0].mutation.kill_racks = {1};
      schedule[1].mutation.restore_racks = {1};
    }
    schedule[0].at = 3;
    schedule[0].mutation.dead_policy = DeadPolicy::Requeue;
    schedule[1].at = 9;
  }
  return engine.run(schedule);
}

TEST(EdgeQueues, HeadListIsExactAndSelectionsMatchTheFullList) {
  int total_rounds = 0;
  int total_deep_rounds = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Instance instance = zoo_instance(seed);
    for (const Variant& variant : variants()) {
      for (const char* name : {"alg", "fifo", "maxweight", "random"}) {
        const std::string label = "seed " + std::to_string(seed) + " " + variant.name + " " +
                                  name;
        const PolicyFactory policy = named_policy(name);
        auto dispatcher = policy.dispatcher();
        // random draws over the list it gets, so a full-list run draws
        // differently: its list is checked, its picks are not.
        const bool comparable = std::string(name) != "random";
        HeadListChecker checker(policy.scheduler(instance.topology()),
                                comparable ? policy.scheduler(instance.topology()) : nullptr,
                                label);
        run_variant(instance, variant, *dispatcher, checker);
        if (::testing::Test::HasFatalFailure()) return;
        total_rounds += checker.rounds;
        total_deep_rounds += checker.deep_rounds;
      }
    }
  }
  EXPECT_GT(total_rounds, 1000);
  // The property only bites when packets wait behind their edge's heads.
  EXPECT_GT(total_deep_rounds, total_rounds / 4);
}

/// Routes even packet ids to edge 0 and odd ones to edge 1, or to the
/// other edge while one is dead.
class AlternatingDispatcher final : public DispatchPolicy {
 public:
  RouteDecision dispatch(const Engine& engine, const Packet& packet) override {
    RouteDecision route;
    route.edge = static_cast<EdgeIndex>(packet.id % 2);
    if (!engine.edge_alive(route.edge)) route.edge = 1 - route.edge;
    return route;
  }
};

TEST(EdgeQueues, RequeuedPacketsInterleaveWithFreshOnesOfTheirChunkWeight) {
  // Two edges from rack 0 to rack 0, each on its own ports. Twelve packets
  // arrive at step 1, split between the edges, all of weight 2 but packet
  // 5 (weight 5, on edge 1). Edge 0 dies at step 3 and its four untouched
  // packets requeue onto edge 1, among edge 1's fresh packets of the same
  // chunk weight. Three more weight-2 packets arrive behind them.
  Topology topology;
  topology.add_sources(1);
  topology.add_destinations(1);
  topology.add_transmitter(0);
  topology.add_transmitter(0);
  topology.add_receiver(0);
  topology.add_receiver(0);
  topology.add_edge(0, 0, 1);
  topology.add_edge(1, 1, 1);
  Instance instance(topology, {});
  for (int i = 0; i < 12; ++i) instance.add_packet(1, i == 5 ? 5.0 : 2.0, 0, 0);
  for (Time t = 4; t <= 6; ++t) instance.add_packet(t, 2.0, 0, 0);
  std::vector<TimedMutation> schedule(1);
  schedule[0].at = 3;
  schedule[0].mutation.kill_edges = {0};
  schedule[0].mutation.dead_policy = DeadPolicy::Requeue;

  for (const char* name : {"alg", "fifo", "maxweight", "random"}) {
    const PolicyFactory policy = named_policy(name);
    HeadListChecker checker(policy.scheduler(topology), nullptr, name);
    // Whether edge 1 ever held a requeued (even) packet between two fresh
    // (odd) ones.
    bool interleaved = false;
    checker.on_round = [&interleaved](const Engine& engine) {
      std::vector<PacketIndex> ids;
      engine.for_each_pending_on(1, [&ids](const Candidate& c) { ids.push_back(c.packet); });
      for (std::size_t i = 1; i + 1 < ids.size(); ++i) {
        interleaved |= ids[i] % 2 == 0 && ids[i - 1] % 2 == 1 && ids[i + 1] % 2 == 1;
      }
    };
    AlternatingDispatcher dispatcher;
    EngineOptions options;
    options.audit = true;
    Engine engine(instance, dispatcher, checker, options);
    const RunResult result = engine.run(schedule);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_TRUE(interleaved) << name;
    EXPECT_EQ(engine.packets_requeued(), 4u) << name;
    EXPECT_EQ(engine.packets_dropped(), 0u) << name;
    EXPECT_GT(checker.deep_edges, 4) << name;
    for (const PacketOutcome& outcome : result.outcomes) {
      EXPECT_GT(outcome.completion, 0) << name;
    }
  }
}

TEST(EdgeQueues, HiddenDeclarationFallsBackToBothHeadsWithTheSameSchedule) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Instance instance = zoo_instance(seed);
    for (const Variant& variant : variants()) {
      for (const char* name : {"alg", "maxweight", "fifo"}) {
        const std::string label = "seed " + std::to_string(seed) + " " + variant.name + " " +
                                  name;
        const PolicyFactory policy = named_policy(name);
        auto bare = policy.scheduler(instance.topology());
        ASSERT_NE(bare->heads(), HeadKinds::Both) << label;
        SelectOnlyWrapper wrapped(policy.scheduler(instance.topology()));
        ASSERT_EQ(wrapped.heads(), HeadKinds::Both) << label;
        auto bare_dispatcher = policy.dispatcher();
        auto wrapped_dispatcher = policy.dispatcher();
        const RunResult want = run_variant(instance, variant, *bare_dispatcher, *bare);
        const RunResult got = run_variant(instance, variant, *wrapped_dispatcher, wrapped);
        EXPECT_EQ(testing::schedule_hash(got.outcomes), testing::schedule_hash(want.outcomes))
            << label;
        EXPECT_EQ(got.total_cost, want.total_cost) << label;
      }
    }
  }
}

}  // namespace
}  // namespace rdcn

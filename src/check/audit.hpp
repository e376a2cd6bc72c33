#pragma once

// Per-step engine invariant auditor (the EngineOptions::audit hook).
//
// The auditor shadows a running engine with an independent per-packet
// ledger built from the observed events alone (dispatches, scheduler
// selections, transmitted rounds, retirements) plus the topology. From
// that ledger it re-derives, every step:
//
//  * selection feasibility -- the scheduler's pick is a (b-)matching:
//    indices valid and distinct, no edge twice, per-endpoint load within
//    EngineOptions::endpoint_capacity, every selected chunk genuinely
//    pending;
//  * head-list integrity -- the list the scheduler receives holds exactly
//    the per-edge heads of the ledger's pending packets that the engine's
//    HeadKinds lists (each edge's highest-priority packet, its earliest-
//    arriving one, or both, once each), sorted by chunk_higher_priority
//    (by packet id for an Arrival list), each entry's (edge, chunk
//    weight, arrival, remaining) agreeing with the ledger; at step end the
//    edge queues hold exactly the ledger's pending packets;
//  * conservation -- packets dispatched == in flight + retired + dropped,
//    and the engine's in-flight count matches the ledger size;
//  * monotone clocks -- the step clock strictly increases, transmissions
//    never predate arrivals;
//  * completion accounting -- at retirement, the packet's chunk count,
//    transmit steps, completion time and weighted latency equal the values
//    the auditor derived independently (fixed routes included).
//
// Any violation throws AuditFailure with step/packet context. The ledger
// holds O(in-flight) state, so streaming audit runs stay bounded-memory
// like the engine itself.
//
// What the auditor cannot see from inside one run -- batch/stream
// equivalence of per-packet completions, optimality gaps, charging and LP
// bound relations -- lives in check/differential.hpp.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/engine.hpp"
#include "sim/observer.hpp"

namespace rdcn::check {

class InvariantAuditor final : public EngineObserver {
 public:
  void on_step_begin(const Engine& engine, Time previous_now) override;
  void on_dispatch(const Engine& engine, const Packet& packet,
                   const RouteDecision& route) override;
  void on_selection(const Engine& engine, const std::vector<Candidate>& candidates,
                    const std::vector<std::size_t>& selected) override;
  void on_round(const Engine& engine, const std::vector<Candidate>& candidates,
                const std::vector<std::size_t>& transmitted) override;
  void on_retire(const Engine& engine, PacketIndex packet,
                 const PacketOutcome& outcome) override;
  void on_drop(const Engine& engine, PacketIndex packet,
               const PacketOutcome& outcome) override;
  void on_requeue(const Engine& engine, PacketIndex packet) override;
  void on_step_end(const Engine& engine) override;

  std::uint64_t rounds_audited() const noexcept { return rounds_; }

 private:
  struct Ledger {
    Time arrival = 0;
    Weight weight = 0.0;
    bool use_fixed = false;
    EdgeIndex edge = kInvalidEdge;
    std::int64_t total_chunks = 0;  ///< d(e); 0 for fixed routes
    std::int64_t transmitted = 0;
    Weight chunk_weight = 0.0;
    Time expected_completion = 0;
    double expected_latency = 0.0;
    std::vector<Time> transmit_steps;
    /// A stage mutation killed this packet's edge with no chunk transmitted
    /// and announced a re-dispatch (on_requeue); the next on_dispatch for
    /// the id is the legal second routing, not a double dispatch.
    bool requeue_pending = false;
  };

  [[noreturn]] void fail(const Engine& engine, const std::string& what) const;
  Ledger& entry(const Engine& engine, PacketIndex packet, const char* context);

  std::unordered_map<PacketIndex, Ledger> ledger_;
  PacketIndex next_id_ = 0;  ///< next first-dispatch sequence id
  std::uint64_t dispatched_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t dropped_ = 0;  ///< failure-injection drops (StageMutation)
  std::uint64_t rounds_ = 0;
  bool clock_started_ = false;

  /// Round-scratch for the matching recount, stamped per round so nothing
  /// is re-zeroed (mirrors the engine's trick, but entirely separate
  /// state). picked_round_ carries two stamps per round -- one for the
  /// head-list integrity pass, one for selection distinctness -- and is
  /// pruned at retirement so it stays O(in-flight) like the ledger.
  std::vector<std::uint64_t> load_t_round_, load_r_round_, edge_round_;
  std::vector<int> load_t_, load_r_;
  std::unordered_map<PacketIndex, std::uint64_t> picked_round_;

  /// The heads each edge's pending packets imply, derived from the ledger
  /// each round (valid iff `round` is the round's integrity stamp).
  struct EdgeHeads {
    std::uint64_t round = 0;
    PacketIndex priority = 0;  ///< highest chunk priority
    Weight priority_weight = 0.0;
    Time priority_arrival = 0;
    PacketIndex earliest = 0;  ///< earliest (arrival, id)
    Time earliest_arrival = 0;
  };
  std::vector<EdgeHeads> edge_heads_;
};

}  // namespace rdcn::check

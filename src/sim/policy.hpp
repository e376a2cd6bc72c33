#pragma once

// Policy interfaces for the time-stepped engine. Every scheduler in this
// repo -- the paper's ALG and all baselines -- is a (DispatchPolicy,
// SchedulePolicy) pair:
//
//  * the dispatcher runs once per packet, at its (integral) arrival, and
//    irrevocably commits the packet to either the fixed direct link or to
//    one transmitter-receiver edge (the paper's non-migratory routing);
//  * the schedule policy runs once per transmission step and picks which
//    pending chunks cross the reconfigurable layer; the engine enforces
//    that the picked edges form a matching.

#include <cstdint>
#include <vector>

#include "net/instance.hpp"

namespace rdcn {

class Engine;

/// Routing commitment for one packet.
struct RouteDecision {
  bool use_fixed = false;
  EdgeIndex edge = kInvalidEdge;  ///< valid iff !use_fixed
  /// The dispatcher's a-priori bound on the packet's charge (the paper's
  /// alpha_p = Delta_p(e_p) or w_p*dl(p)); baselines may leave it 0.
  double alpha = 0.0;
};

/// One pending packet's next chunk at the current step.
struct Candidate {
  PacketIndex packet = 0;
  EdgeIndex edge = kInvalidEdge;
  NodeIndex transmitter = 0;
  NodeIndex receiver = 0;
  Weight chunk_weight = 0.0;  ///< w_p / d(e_p)
  Time arrival = 0;           ///< a_p
  std::int64_t remaining = 0; ///< untransmitted chunks of the packet
};

/// The single total order on chunks used everywhere in the paper:
/// decreasing chunk weight, then increasing packet arrival, then input
/// sequence position. Section III-B's requirement that "from two chunks of
/// the same weight, the chunk of the earlier arriving packet is preferred"
/// and Section III-C's scheduler ordering are both instances of this order;
/// using one comparator keeps the dispatcher's H/L classification and the
/// scheduler's blocking relation consistent (which Lemma 2 relies on).
///
/// Unless the policy declares HeadKinds::Arrival, the engine keeps each
/// edge's queue sorted by this order, and the head list it hands
/// SchedulePolicy::select too, so priority-driven schedulers never sort.
inline bool chunk_higher_priority(const Candidate& a, const Candidate& b) noexcept {
  if (a.chunk_weight != b.chunk_weight) return a.chunk_weight > b.chunk_weight;
  if (a.arrival != b.arrival) return a.arrival < b.arrival;
  return a.packet < b.packet;
}

/// Output buffer of one SchedulePolicy::select call: the candidate indices
/// to transmit this round. The engine owns one Selection and hands the
/// same object to every round (cleared), so a policy that also keeps its
/// working buffers as members runs the steady-state round loop without a
/// single heap allocation -- the vector below only grows to the high-water
/// matching size once. Policies append via push(); order is up to the
/// policy (the engine treats the selection as a set).
class Selection {
 public:
  void clear() noexcept { indices_.clear(); }
  void push(std::size_t candidate_index) { indices_.push_back(candidate_index); }

  std::size_t size() const noexcept { return indices_.size(); }
  bool empty() const noexcept { return indices_.empty(); }
  const std::vector<std::size_t>& indices() const noexcept { return indices_; }
  /// In-place access for callers that filter or reorder what a policy
  /// produced (the engine's reconfiguration-delay pass, test harnesses).
  std::vector<std::size_t>& mutable_indices() noexcept { return indices_; }

 private:
  std::vector<std::size_t> indices_;
};

class DispatchPolicy {
 public:
  virtual ~DispatchPolicy() = default;
  /// Called once per packet, in arrival order, at time == packet.arrival,
  /// after all earlier packets of the same step were dispatched.
  virtual RouteDecision dispatch(const Engine& engine, const Packet& packet) = 0;
};

/// Which of each edge's heads a schedule policy can pick
/// (SchedulePolicy::heads): the engine hands select() only those.
enum class HeadKinds : std::uint8_t {
  /// Each non-empty edge's priority head and arrival head (one entry when
  /// they coincide), sorted by chunk_higher_priority.
  Both,
  /// Each non-empty edge's priority head, sorted by chunk_higher_priority.
  Priority,
  /// Each non-empty edge's arrival head, sorted by packet id -- arrival
  /// order, since ids are assigned in arrival order.
  Arrival,
};

class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;
  /// Fills `out` (cleared by the caller) with indices into `candidates` to
  /// transmit this step. The engine checks the selection occupies each
  /// transmitter/receiver at most once (or up to endpoint_capacity) and
  /// each edge at most once.
  ///
  /// Contract:
  ///  * `candidates` is the engine's head list, not the whole backlog: per
  ///    edge with pending work, the heads heads() declares -- its highest-
  ///    priority candidate (priority head), its earliest-arriving one
  ///    (arrival head), or both -- one entry per edge and head, at most
  ///    2|E| entries. A policy that ranks an edge's packets by chunk
  ///    priority or by arrival therefore sees every packet it could pick:
  ///    a packet behind the head of its order shares that head's endpoints
  ///    and ranks below it, so whatever excludes the head excludes it.
  ///    Policies whose random draws range over the list draw over heads.
  ///  * `candidates` is sorted in the declared kind's order: by
  ///    chunk_higher_priority (decreasing chunk weight, then arrival, then
  ///    packet id) for Both and Priority, by packet id for Arrival. So a
  ///    policy that ranks by its declared order scans the list in index
  ///    order without sorting; other policies impose their own order.
  ///  * A wrapper that forwards select() but not heads() (a tracing
  ///    decorator, a test harness) gets the Both list, and so may any
  ///    caller that builds its own list: a policy that declares Priority or
  ///    Arrival must still select correctly from a Both list.
  ///  * `out` is an engine-owned scratch buffer reused across rounds;
  ///    policies must not keep references to it. Policies are expected to
  ///    keep their own working storage in members sized on first use so
  ///    the steady-state round loop allocates nothing (see the
  ///    allocation-counting test in tests/test_hotpath.cpp).
  ///  * Engine::active_endpoints(candidates) exposes a dense remap of the
  ///    endpoints that currently carry pending candidates, so per-endpoint
  ///    working state can be sized by the number of busy endpoints instead
  ///    of the topology. The full queues stay readable through
  ///    Engine::for_each_pending_on / for_each_pending_at, each edge in
  ///    the order the engine links for heads(): chunk priority, or packet
  ///    id for Arrival.
  virtual void select(const Engine& engine, Time now,
                      const std::vector<Candidate>& candidates, Selection& out) = 0;

  /// The heads select() can pick; the engine reads it once, at
  /// construction. Both, the default, suits any policy; Priority or
  /// Arrival shortens the list to one entry per edge for a policy that
  /// only ever picks that head, and the engine then keeps only that
  /// order in its queues.
  virtual HeadKinds heads() const noexcept { return HeadKinds::Both; }
};

}  // namespace rdcn

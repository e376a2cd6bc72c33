#pragma once

// Time-stepped simulation engine for the model of Section II.
//
// Timeline per integral step tau:
//   1. every packet with arrival == tau is dispatched (in sequence order)
//      and its chunks join the pending pool;
//   2. `speedup_rounds` scheduling rounds run; each transmits a matching of
//      pending chunks (one chunk per busy transmitter/receiver per round);
//   3. transmitted chunks complete at tau + 1 + d(src,t) + d(r,dest) and
//      their weighted latency w_c * (completion - a_p) is accounted.
//
// speedup_rounds = 1 is the paper's unit-speed algorithm (the analysis puts
// the 1/(2+eps) slowdown on OPT instead); k > 1 realizes an integral
// algorithm-side speedup for the ablation experiments.
//
// The engine is driven one step at a time (begin_step / inject /
// finish_step); completed packets leave through a retirement sink instead
// of accumulating, so resident per-packet state is O(in-flight), not
// O(total served) -- the mode behind traffic/'s open-loop steady-state
// runs. Batch mode is the same streaming engine plus a sink that collects
// every PacketOutcome: constructed from an Instance, run() feeds the
// packet sequence through inject(), so a streamed run over a recorded
// arrival sequence reproduces the batch schedule bit-for-bit.
//
// Hot-path design (the engine is the inner loop of every bench and the
// ScenarioRunner fan-out):
//  * pending reconfigurable work lives in per-edge queues -- virtual
//    output queues -- and nowhere else. Each pending packet is one pooled
//    node holding its Candidate, linked into the orders its edge's head
//    list reads (SchedulePolicy::heads): the priority order for ALG and
//    MaxWeight, the arrival order for FIFO, both for every other policy.
//    The pool grows once to the high-water backlog and recycles nodes
//    through a free list; each edge costs the two ends of both orders plus
//    a dirty flag;
//  * one enqueue costs O(runs of equal chunk weight it crosses), not
//    O(queue depth): each end of a maximal run of equal chunk weight in the
//    priority order names the run's other end, so the insertion walk hops
//    in from both ends of the queue a whole run per step. Weights are few
//    distinct values in practice (integer packet weights over delays 1-2),
//    and a fresh dispatch ranks after every queued packet of its own
//    weight, so it lands at its run's end without visiting the run; only a
//    requeued (older) packet walks inside its run. The arrival order takes
//    a fresh dispatch in O(1) at the newest end;
//  * SchedulePolicy::select receives a head list, not the backlog: for
//    every edge with pending work, the heads its policy declares
//    (SchedulePolicy::heads). A policy that ranks by chunk priority (ALG,
//    MaxWeight) gets each edge's highest-priority candidate, sorted by
//    chunk_higher_priority; FIFO gets each edge's earliest-arriving one,
//    sorted by packet id; any other policy gets both (one entry when they
//    coincide), sorted by chunk_higher_priority -- at most 2|E| entries.
//    Each round re-reads only the edges whose listed heads changed since
//    the last one and merges them into the sorted list. Every policy
//    transmits at most one chunk per edge and round, and a non-head
//    candidate shares both endpoints with its edge's heads while ranking
//    below one of them in the policy's own order (chunk priority, or
//    arrival for FIFO, iSLIP and rotor), so the restriction selects
//    exactly what the full backlog would -- b-matching included; only
//    policies whose random draws range over the list (random) see a
//    different draw;
//  * the steady-state round loop performs zero heap allocations: the
//    scheduler fills an engine-owned Selection scratch in place, the
//    reconfiguration-delay filter and the head refresh work on reusable
//    buffers, and every registry policy keeps its own working storage in
//    members (pinned by tests/test_hotpath.cpp);
//  * active-endpoint compression: active_endpoints() exposes a per-round
//    dense remap of only the transmitters/receivers that currently carry
//    pending candidates, so matching computations (MaxWeight's Hungarian,
//    iSLIP's request matrix) run over k_active-sized state instead of
//    topology-sized arrays;
//  * dispatch-side queries go through an incremental per-endpoint impact
//    index (sim/impact_index.hpp), a query structure derived from the
//    queues: integer chunk-load counters make JSQ's edge load O(1), and
//    per-endpoint weight aggregates answer impact_of's |H|/w(L) split
//    instead of scanning the queues of the candidate edge's endpoints.
//    While every chunk weight is a coarse dyadic value (integer weights
//    over short delays, as every benchmark draws) the aggregates are
//    lines of exact per-weight chunk counts, O(1) to update and summed
//    over a dictionary prefix per query; the first weight on which a sum
//    could round switches the index to canonical weight-keyed treaps,
//    O(log n) per update and query, for good. Both give the same bits.
//    The engine feeds the index at the three points where the queues
//    change (dispatch, per-chunk service, unlisting), and each change
//    updates the weight structures at once. They are enabled lazily by
//    the first impact_split() call and decay during long non-impact
//    drains, so non-impact policies pay only the O(1) counters;
//  * per-packet state lives only with a packet's queue node: one record
//    (weight, endpoints, the PacketOutcome its service accumulates) at the
//    node's index, so a packet holds per-packet memory exactly while it
//    waits in an edge queue, however long one light packet starves behind
//    heavier ones. Records live in fixed-size blocks that are added as the
//    node pool grows and never move, so growth neither copies nor
//    re-constructs a live record, and a dispatch fills its record in
//    place. Fixed-route packets and arrival-time drops never get a record;
//    they retire from a local outcome at dispatch;
//  * matching validation uses round-stamped scratch arrays instead of
//    per-round allocations sized by the topology;
//  * time advances event-driven: when no chunk is pending the clock jumps
//    to the next arrival instead of simulating empty steps;
//  * special cases stay out of the round loop: the invariant audit is an
//    EngineObserver, and restricted migration and stage-mutation requeues
//    share one requeue routine.

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/instance.hpp"
#include "sim/chunk_steps.hpp"
#include "util/fault.hpp"
#include "sim/impact_index.hpp"
#include "sim/observer.hpp"
#include "sim/policy.hpp"
#include "sim/probe.hpp"

namespace rdcn {

struct EngineOptions {
  int speedup_rounds = 1;
  /// Hard stop; exceeding it throws, catching schedulers that starve
  /// packets. Batch mode: 0 derives a bound from Instance::horizon_bound().
  /// Streaming mode: 0 disables the guard (the driver owns termination).
  Time max_steps = 0;
  /// b-matching extension: each transmitter/receiver may carry up to this
  /// many simultaneous edges per step (each edge still carries one chunk).
  /// 1 = the paper's matching model.
  int endpoint_capacity = 1;
  /// Reconfiguration-delay extension: retargeting an endpoint to a new
  /// edge keeps it dark for this many steps (0 = the paper's free
  /// reconfiguration). Requires endpoint_capacity == 1.
  Delay reconfig_delay = 0;
  /// Restricted-migration ablation: every step, packets that have not yet
  /// transmitted ANY chunk are handed back to the dispatcher (in their
  /// original order) and may change route. The paper's ALG is
  /// non-migratory (false); OPT in the analysis is fully migratory -- this
  /// probes the gap for queued packets. Both modes; incompatible with
  /// stage mutations, and StreamRunner refuses it.
  bool redispatch_queued = false;
  /// Per-step invariant audit (check/): the engine carries an
  /// InvariantAuditor that independently re-derives matching feasibility,
  /// conservation, clock monotonicity and per-packet completion accounting
  /// from the observed events, throwing AuditFailure on any violation.
  /// Works in both modes; costs a constant factor, so it is off by default
  /// and turned on by tests, golden replays and the fuzz driver.
  bool audit = false;
  /// Observability (sim/probe.hpp): phase profiler + counter/gauge
  /// registry over the scheduling round, optional raw-span ring for Chrome
  /// trace export. Purely observational -- schedules are bit-for-bit
  /// identical either way -- and allocation-free at steady state when on.
  /// Both modes. (Kept after the scalar options so their designated
  /// initializers stay valid.)
  ProbeConfig probe{};
  /// Cooperative cancellation (util/fault.hpp): when set, begin_step
  /// checks the token (one relaxed load) and throws CancelledError at the
  /// first step boundary after it fires -- the same step-edge contract as
  /// apply_mutation. Null (the default, when no deadline is armed) costs
  /// one pointer test on the hot path. The token must outlive the run.
  const CancelToken* cancel = nullptr;
};

/// Per-packet outcome of a run.
struct PacketOutcome {
  RouteDecision route;
  /// Transmit step of chunk i (reconfigurable route only), size d(e_p).
  ChunkSteps chunk_transmit_steps;
  Time completion = 0;          ///< time the last fraction reaches dest(p)
  double weighted_latency = 0;  ///< sum over fractions of w*x*(finish - a_p)
  /// The packet never completed: its edge was killed by a StageMutation (or
  /// it arrived for a pair with no surviving route). completion stays 0;
  /// weighted_latency keeps the chunks already accounted (wasted service).
  bool dropped = false;
};

/// What happens to in-flight packets whose assigned edge a StageMutation
/// kills. Fixed-route packets retire at dispatch and are never affected.
enum class DeadPolicy {
  /// Retire immediately as dropped (outcome.dropped; partial latency kept).
  Drop,
  /// Packets with no transmitted chunk are handed back to the dispatcher
  /// and may re-route over surviving edges or the fixed layer; packets
  /// mid-transmit still drop (routing is non-migratory, Section II).
  Requeue,
};

/// One atomic engine/topology mutation. Valid only at a step boundary
/// (between finish_step() and the next begin_step()): the engine patches
/// the edge queues, the impact index and the affected in-flight packets
/// together, then cross-checks the index against a rebuild from scratch.
/// Restores apply before kills, so an edge named by both ends up dead.
struct StageMutation {
  std::vector<EdgeIndex> kill_edges;
  std::vector<EdgeIndex> restore_edges;
  /// Rack granularity: index r kills/restores every reconfigurable edge
  /// whose transmitter attaches to source r or whose receiver attaches to
  /// destination r. Fixed direct links never die (the hybrid safety net).
  std::vector<NodeIndex> kill_racks;
  std::vector<NodeIndex> restore_racks;
  int speedup_rounds = 0;     ///< scheduling rounds per step; 0 = keep current
  int endpoint_capacity = 0;  ///< b-matching capacity; 0 = keep current
  DeadPolicy dead_policy = DeadPolicy::Drop;

  bool is_noop() const noexcept {
    return kill_edges.empty() && restore_edges.empty() && kill_racks.empty() &&
           restore_racks.empty() && speedup_rounds == 0 && endpoint_capacity == 0;
  }
};

/// Effect summary of one Engine::apply_mutation call.
struct MutationStats {
  std::size_t edges_killed = 0;    ///< alive -> dead transitions
  std::size_t edges_restored = 0;  ///< dead -> alive transitions
  std::uint64_t packets_dropped = 0;
  std::uint64_t packets_requeued = 0;
};

/// A mutation pinned to a clock time: it takes effect for every step with
/// now() >= at (the stage clock, drive() in sim/drive.hpp, applies it
/// before the first such step begins, clamping idle jumps so no stage edge
/// is skipped).
struct TimedMutation {
  Time at = 0;
  StageMutation mutation;
};

/// What the streaming retirement sink receives when a packet completes
/// (for fixed-route packets: immediately at dispatch; for reconfigurable
/// routes: at the step its last chunk transmits).
struct RetiredPacket {
  PacketIndex id = 0;
  Time arrival = 0;
  Weight weight = 0.0;
  PacketOutcome outcome;
};

/// Retirement callback of an engine. Called once per packet, in completion
/// order (not id order).
using RetireSink = std::function<void(RetiredPacket&&)>;

/// Dense remap of the endpoints that currently carry pending candidates
/// (built per scheduling round; see Engine::active_endpoints). Ranks are
/// assigned in order of first appearance in the head list, so they are
/// deterministic in the engine state. In a priority-sorted list every
/// endpoint first appears through some edge's priority head, so the Both
/// and Priority lists rank the endpoints alike.
struct ActiveEndpoints {
  std::vector<NodeIndex> transmitters;  ///< dense rank -> topology id
  std::vector<NodeIndex> receivers;

  std::size_t num_transmitters() const noexcept { return transmitters.size(); }
  std::size_t num_receivers() const noexcept { return receivers.size(); }

  /// topology id -> dense rank. Valid ONLY for endpoints that appear in
  /// the candidate list the map was built from (entries for inactive
  /// endpoints are stale, deliberately: no O(topology) clear per round).
  std::int32_t transmitter_rank(NodeIndex t) const {
    return transmitter_rank_[static_cast<std::size_t>(t)];
  }
  std::int32_t receiver_rank(NodeIndex r) const {
    return receiver_rank_[static_cast<std::size_t>(r)];
  }

 private:
  friend class Engine;
  std::vector<std::int32_t> transmitter_rank_;
  std::vector<std::int32_t> receiver_rank_;
};

struct RunResult {
  std::vector<PacketOutcome> outcomes;  ///< batch mode only; empty streamed
  double total_cost = 0.0;     ///< total weighted fractional latency
  double reconfig_cost = 0.0;  ///< share routed over the reconfigurable layer
  double fixed_cost = 0.0;     ///< share routed over fixed direct links
  Time makespan = 0;           ///< last completion time
  Time steps_simulated = 0;
  ProbeReport probe;  ///< filled (enabled = true) iff EngineOptions::probe
};

class Engine {
 public:
  /// Batch mode: simulate a full Instance via run(). The engine installs
  /// its own sink, which collects every outcome into RunResult::outcomes.
  Engine(const Instance& instance, DispatchPolicy& dispatcher, SchedulePolicy& scheduler,
         EngineOptions options = {});

  /// Streaming mode: packets are injected online in id order (ids
  /// sequential from 0, arrivals nondecreasing); completed packets leave
  /// through `sink`.
  Engine(const Topology& topology, DispatchPolicy& dispatcher, SchedulePolicy& scheduler,
         EngineOptions options, RetireSink sink);

  /// Not copyable or movable: the batch sink captures `this`.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Batch mode only: injects the instance's packets step by step and runs
  /// to completion through the stage clock (drive_recorded, sim/drive.hpp).
  /// Mutations of `schedule`, sorted by `at` (nondecreasing), are applied
  /// at step boundaries so that every step with now() >= at executes
  /// post-mutation; the idle jump is clamped to the next stage edge, so
  /// schedules are honored even across arrival gaps. A nonempty schedule
  /// is incompatible with redispatch_queued.
  RunResult run(const std::vector<TimedMutation>& schedule = {});

  // --- stage mutations ----------------------------------------------------

  /// Applies one mutation atomically at a step boundary (throws between
  /// begin_step and finish_step). Every index and scalar is validated
  /// before any state changes, so a rejected mutation leaves the engine
  /// untouched. Patches the edge queues and the impact index together,
  /// drops or requeues in-flight packets on dead edges, then cross-checks
  /// the index bit-for-bit against a rebuild from scratch. Both modes.
  MutationStats apply_mutation(const StageMutation& mutation);

  /// False only for reconfigurable edges killed by a StageMutation.
  bool edge_alive(EdgeIndex e) const noexcept {
    return dead_edges_ == 0 || edge_alive_[static_cast<std::size_t>(e)] != 0;
  }

  /// E_p's alive edges, in E_p order -- what dispatchers route over. While
  /// no edge is dead this is the topology's pair_edges view itself;
  /// otherwise the alive subset, in one engine-owned scratch that stays
  /// valid until the next call.
  std::span<const EdgeIndex> viable_edges(NodeIndex source, NodeIndex destination) const;

  /// True if source->destination still has some way through: a fixed
  /// direct link, or at least one alive reconfigurable edge.
  bool has_viable_route(NodeIndex source, NodeIndex destination) const;

  std::uint64_t packets_dropped() const noexcept { return dropped_count_; }
  std::uint64_t packets_requeued() const noexcept { return requeued_count_; }

  // --- streaming interface ------------------------------------------------
  //
  // One engine step; drive() in sim/drive.hpp is the loop that runs them
  // for run() and for every staged driver, stage edges included:
  //   begin_step(next_arrival);              // clock advance + step guard
  //   while (arrival == now()) inject(p);    // dispatch this step's packets
  //   finish_step();                         // scheduling rounds, retirement

  /// True while any chunk is pending on the reconfigurable layer.
  bool busy() const noexcept { return pending_count_ != 0; }

  /// Advances the clock one step -- jumping to *next_arrival when idle --
  /// and counts the step against max_steps. Pass the arrival time of the
  /// earliest not-yet-injected packet, or nullptr when the arrival stream
  /// is exhausted (drain).
  void begin_step(const Time* next_arrival);

  /// Dispatches one packet at the current step (packet.arrival must equal
  /// now(), packet.id must be the next sequential id).
  void inject(const Packet& packet);

  /// Runs the step's scheduling rounds and retires completed packets.
  void finish_step();

  /// Aggregate costs/makespan accumulated so far (streaming mode: the
  /// outcomes vector stays empty; per-packet data leaves via the sink).
  const RunResult& aggregates() const noexcept { return result_; }

  /// Packets dispatched but not yet retired.
  std::size_t in_flight() const noexcept {
    return static_cast<std::size_t>(dispatched_count_ - retired_count_ - dropped_count_);
  }
  /// Peak number of resident per-packet records -- the memory-bounding
  /// quantity. A record lives exactly while its packet is pending in an
  /// edge queue, so the current count is pending_count(): O(in-flight), not
  /// O(total served). The peak is the node pool's high-water size.
  std::size_t peak_resident_slots() const noexcept { return nodes_.size(); }
  std::uint64_t packets_dispatched() const noexcept { return dispatched_count_; }
  std::uint64_t packets_retired() const noexcept { return retired_count_; }

  // --- read-only view for policies ---------------------------------------

  const Topology& topology() const noexcept { return *topology_; }
  const EngineOptions& options() const noexcept { return options_; }
  Time now() const noexcept { return now_; }

  /// Packets pending on the reconfigurable layer: the queues' total length.
  std::size_t pending_count() const noexcept { return pending_count_; }

  /// The head list SchedulePolicy::select receives: for every edge with
  /// pending work, the heads of head_kinds() -- its highest-priority
  /// candidate, its earliest-arriving one, or both (one entry when they
  /// coincide) -- in decreasing chunk priority, or in increasing packet id
  /// for HeadKinds::Arrival. Refreshed at the start of each scheduling
  /// round, so between rounds it may still show packets that finished or
  /// miss ones that arrived since.
  const std::vector<Candidate>& head_candidates() const noexcept { return heads_; }
  /// The scheduler's SchedulePolicy::heads(), read once at construction.
  HeadKinds head_kinds() const noexcept { return head_kinds_; }

  /// Calls visit(const Candidate&) for every candidate pending on edge
  /// `e`, in the edge's linked order: decreasing chunk priority unless the
  /// scheduler declares HeadKinds::Arrival, increasing packet id then.
  /// Callers that need one particular order sort what they collect.
  template <typename Visit>
  void for_each_pending_on(EdgeIndex e, Visit&& visit) const {
    for_each_node(queues_[static_cast<std::size_t>(e)], [&](std::int32_t n) {
      visit(nodes_[static_cast<std::size_t>(n)].candidate);
    });
  }
  /// Every pending candidate whose transmitter is `t` or whose receiver is
  /// `r`, each once: the queues of the edges incident to t, then those
  /// incident to r but not to t -- the A_p(e) scan of the impact oracles.
  template <typename Visit>
  void for_each_pending_at(NodeIndex t, NodeIndex r, Visit&& visit) const {
    for (EdgeIndex e : topology_->edges_of_transmitter(t)) for_each_pending_on(e, visit);
    for (EdgeIndex e : topology_->edges_of_receiver(r)) {
      if (topology_->edge(e).transmitter != t) for_each_pending_on(e, visit);
    }
  }
  /// Every pending candidate, edge by edge, each edge in its linked order.
  /// O(|E| + pending).
  template <typename Visit>
  void for_each_pending(Visit&& visit) const {
    for (std::size_t e = 0; e < queues_.size(); ++e) {
      for_each_pending_on(static_cast<EdgeIndex>(e), visit);
    }
  }

  /// Dense remap of the endpoints carrying candidates in `candidates`.
  /// When called on the engine's own head list (the normal select() path)
  /// the map is built at most once per scheduling round (round-stamped); a
  /// foreign list -- bench harnesses isolating one select call -- rebuilds
  /// into the same reusable buffers. Either way the build allocates
  /// nothing at steady state.
  const ActiveEndpoints& active_endpoints(const std::vector<Candidate>& candidates) const;

  /// The incremental impact index's always-on integer-load view (JSQ's
  /// edge_load, pair grouping). Never enables the weight structures.
  const ImpactIndex& impact_index() const noexcept { return impact_index_; }

  /// The observability probe; null unless EngineOptions::probe.enabled.
  /// Streaming drivers read it live (telemetry windows diff its report);
  /// batch mode also copies the final report into RunResult::probe.
  const Probe* probe() const noexcept { return probe_; }
  Probe* probe() noexcept { return probe_; }

  /// The |H_p(e)| / w(L_p(e)) split at `threshold` = w_p/d(e) -- the
  /// hot path behind impact_of. Enables (or rebuilds after decay) the
  /// index's weight structures on first use; `mutable` for the same reason
  /// as the active-endpoint cache: a lazily-built view behind the const
  /// policy interface.
  ImpactSplit impact_split(EdgeIndex e, double threshold) const;

  /// Per-edge constants derived from the topology once at construction.
  /// Folding them into one cache line per edge keeps the per-candidate
  /// dispatch math (impact_of's deterministic terms) and the per-chunk
  /// completion accounting off the topology's bounds-checked scattered
  /// arrays. base_coeff keeps the exact association of the formula it
  /// replaces, so Delta values are bit-identical.
  struct EdgeMeta {
    double base_coeff = 0.0;  ///< d(u) + (d(e) + 1)/2 + d(v)
    double delay = 1.0;       ///< d(e)
    Delay attach_tail = 0;    ///< d(src(t), t) + d(r, dest(r))
  };
  const EdgeMeta& edge_meta(EdgeIndex e) const {
    return edge_meta_[static_cast<std::size_t>(e)];
  }

 private:
  /// What a pending packet carries beyond its Candidate (which already
  /// holds its id, arrival, edge and untransmitted chunks): the weight and
  /// endpoints that rebuild its Packet for re-dispatch and retirement --
  /// streaming mode has no packet sequence to look them up in -- and the
  /// outcome its service accumulates. Lives at the packet's node index.
  struct PacketRecord {
    Weight weight = 0.0;
    NodeIndex source = 0;
    NodeIndex destination = 0;
    PacketOutcome outcome;
  };

  /// One pending packet: its Candidate, linked into its edge's priority
  /// order (prev/next, with `run`) and arrival order (older/newer), each
  /// only where the engine links that order (links_priority,
  /// links_arrival). At either end of a maximal run of equal chunk weight
  /// in the priority order, `run` names the run's other end (itself for a
  /// one-node run); inside a run it is stale. A free node keeps the free
  /// list in `next`.
  struct QueueNode {
    Candidate candidate;
    std::int32_t prev = -1, next = -1;
    std::int32_t older = -1, newer = -1;
    std::int32_t run = -1;
  };
  /// One edge's queue: both ends of both orders (an order the engine does
  /// not link stays empty), and whether its listed heads changed since the
  /// head list last read them.
  struct EdgeQueue {
    std::int32_t first = -1;   ///< highest priority: the priority head
    std::int32_t last = -1;    ///< lowest priority
    std::int32_t oldest = -1;  ///< earliest arrival: the arrival head
    std::int32_t newest = -1;
    bool dirty = false;
  };
  /// Packet records come in blocks of 2^kRecordBlockBits; record(n) is
  /// node n's.
  static constexpr int kRecordBlockBits = 8;
  static constexpr std::size_t kRecordBlock = std::size_t{1} << kRecordBlockBits;
  PacketRecord& record(std::int32_t n) {
    const auto i = static_cast<std::size_t>(n);
    return record_blocks_[i >> kRecordBlockBits][i & (kRecordBlock - 1)];
  }
  const PacketRecord& record(std::int32_t n) const {
    const auto i = static_cast<std::size_t>(n);
    return record_blocks_[i >> kRecordBlockBits][i & (kRecordBlock - 1)];
  }

  void init(EngineOptions options);
  /// Hands a finished packet's outcome to the auditor and moves it out
  /// through the sink. `dropped` retires it without completion
  /// (outcome.dropped; partial latency kept).
  void retire_packet(const Packet& packet, PacketOutcome& outcome, bool dropped = false);
  /// Applies a dispatch decision to a packet: enqueue it on its edge with a
  /// fresh record, or retire it at once over its fixed link.
  void apply_route(const Packet& packet, const RouteDecision& route);
  /// Links a fresh node for `candidate` into its edge's linked orders and
  /// returns its index (the index of the packet's record as well).
  std::int32_t enqueue(const Candidate& candidate);
  /// enqueue's two halves: insert node `n` into queue `q`'s priority
  /// order, or its arrival order.
  void link_priority(EdgeQueue& q, std::int32_t n);
  void link_arrival(EdgeQueue& q, std::int32_t n);
  /// Unlinks node `n` from its edge's orders and frees it; its record
  /// stays intact until the node is reused.
  void dequeue(std::int32_t n);
  /// Which orders the queues link -- exactly those whose heads the head
  /// list holds: the priority order unless the scheduler declares
  /// HeadKinds::Arrival, the arrival order unless it declares Priority.
  bool links_priority() const noexcept { return head_kinds_ != HeadKinds::Arrival; }
  bool links_arrival() const noexcept { return head_kinds_ != HeadKinds::Priority; }
  /// The first node of queue `q`'s linked order (the priority order when
  /// linked); negative when the edge has nothing pending.
  std::int32_t front(const EdgeQueue& q) const noexcept {
    return links_priority() ? q.first : q.oldest;
  }
  /// Calls visit(node index) for every node of queue `q`, in its linked
  /// order.
  template <typename Visit>
  void for_each_node(const EdgeQueue& q, Visit&& visit) const {
    if (links_priority()) {
      for (std::int32_t n = q.first; n >= 0; n = nodes_[static_cast<std::size_t>(n)].next) {
        visit(n);
      }
    } else {
      for (std::int32_t n = q.oldest; n >= 0; n = nodes_[static_cast<std::size_t>(n)].newer) {
        visit(n);
      }
    }
  }
  /// The node of head-list entry `c`: the listed head of its edge.
  std::int32_t head_node(const Candidate& c) const {
    const EdgeQueue& q = queues_[static_cast<std::size_t>(c.edge)];
    if (!links_arrival()) return q.first;
    if (!links_priority()) return q.oldest;
    const Candidate& first = nodes_[static_cast<std::size_t>(q.first)].candidate;
    return first.packet == c.packet ? q.first : q.oldest;
  }
  /// The Packet pending at node `n`, rebuilt from its Candidate and record.
  Packet packet_at(std::int32_t n) const {
    const Candidate& c = nodes_[static_cast<std::size_t>(n)].candidate;
    const PacketRecord& r = record(n);
    return Packet{c.packet, c.arrival, r.weight, r.source, r.destination};
  }
  /// Flags edge `e` for the next head refresh, which drops its entries
  /// from the head list and re-reads its listed heads.
  void mark_dirty(EdgeIndex e);
  /// Re-reads the listed heads of the dirty edges and merges them into the
  /// sorted head list.
  void refresh_heads();
  /// refresh_heads' body for the list's order `before`, a function object
  /// so that sort and merge inline it.
  template <typename Order>
  void refresh_heads_in(Order before);
  /// Unlists every pending packet `pick` selects and hands it back to the
  /// dispatcher in (arrival, id) order, so re-dispatch is deterministic
  /// and arrival-fair. A packet that already transmitted a chunk, has no
  /// surviving route, or meets DeadPolicy::Drop is dropped instead. With
  /// `stats` (the stage-mutation path) requeues and drops are counted and
  /// requeues reported to the auditor; restricted migration passes null.
  template <typename Pick>
  void requeue_pending(Pick pick, DeadPolicy policy, MutationStats* stats);
  /// One scheduling round; returns number of chunks transmitted.
  std::size_t schedule_round();
  /// Verifies the incremental impact index against a rebuild from scratch
  /// (integer loads always; weight splits when the weight structures are
  /// live). Throws std::logic_error on any mismatch. Called after every
  /// apply_mutation -- mutations are cold, rebuilds are O(n log n).
  void crosscheck_impact_index();

  const Instance* instance_ = nullptr;  ///< null in streaming mode
  const Topology* topology_ = nullptr;
  DispatchPolicy* dispatcher_;
  SchedulePolicy* scheduler_;
  HeadKinds head_kinds_ = HeadKinds::Both;  ///< scheduler_->heads()
  EngineOptions options_;
  RetireSink sink_;  ///< the caller's, or batch mode's outcome collector
  std::unique_ptr<EngineObserver> auditor_;  ///< set iff options_.audit
  std::unique_ptr<Probe> probe_store_;  ///< set iff options_.probe.enabled
  /// Raw mirror of probe_store_: the hot-path sites branch on one pointer;
  /// const views (impact_split) still time themselves through it.
  Probe* probe_ = nullptr;

  /// Reconfiguration-delay state: what each endpoint is tuned (or tuning)
  /// to, and when it becomes usable. Only consulted when reconfig_delay > 0.
  struct EndpointConfig {
    EdgeIndex target = kInvalidEdge;
    Time ready = 0;
  };
  std::vector<EndpointConfig> transmitter_config_;
  std::vector<EndpointConfig> receiver_config_;

  Time now_ = 0;

  /// Packet counters. Ids run 0, 1, 2, ... in dispatch order, so the next
  /// expected id is dispatched_count_.
  std::uint64_t dispatched_count_ = 0;
  std::uint64_t retired_count_ = 0;
  std::uint64_t dropped_count_ = 0;
  std::uint64_t requeued_count_ = 0;

  /// Stage-mutation state. dead_edges_ == 0 is the steady-state fast path:
  /// edge_alive() reduces to one compare and viable_edges() hands out the
  /// topology's view, so runs without mutations pay nothing; while some
  /// edge is dead, viable_edges() filters into viable_scratch_ (grow-once).
  /// step_open_ guards the step-boundary contract of apply_mutation.
  std::vector<char> edge_alive_;
  std::size_t dead_edges_ = 0;
  mutable std::vector<EdgeIndex> viable_scratch_;
  bool step_open_ = false;
  /// Requeue-path scratch (cold): the nodes requeue_pending handles.
  std::vector<std::int32_t> requeue_scratch_;

  /// The pending work: one queue per edge over a pooled node arena (free
  /// list threaded through QueueNode::next) with each node's packet record
  /// in a block beside it, the sorted head list handed to the scheduler
  /// (and the buffer its refresh merges into, sized for the old list plus
  /// the fresh heads up to the list's bound, then truncated to what the
  /// merge wrote), and the edges whose heads it has yet to re-read. nodes_ grows once to the
  /// high-water backlog, and record_blocks_ a block at a time with it.
  std::vector<EdgeQueue> queues_;
  std::vector<QueueNode> nodes_;
  std::vector<std::unique_ptr<PacketRecord[]>> record_blocks_;
  std::int32_t free_node_ = -1;
  std::size_t pending_count_ = 0;
  std::vector<Candidate> heads_, spare_heads_;
  std::vector<EdgeIndex> dirty_edges_;

  /// Round-stamped scratch for selection validation (replaces per-round
  /// allocations sized by the topology).
  std::uint64_t round_serial_ = 0;
  std::vector<std::uint64_t> edge_used_round_;
  std::vector<std::uint64_t> load_t_round_, load_r_round_;
  std::vector<int> load_t_, load_r_;
  std::vector<std::uint64_t> chosen_round_;  ///< per head-list index

  std::vector<EdgeMeta> edge_meta_;  ///< per-edge constants (see edge_meta())

  /// Reusable round-loop scratch: the Selection handed to the scheduler,
  /// the dirty edges' fresh heads, and the head indices a round finished.
  /// All grow-once.
  Selection selection_;
  std::vector<Candidate> fresh_heads_;
  std::vector<std::size_t> finished_scratch_;

  /// Incremental per-endpoint impact index; fed at dispatch, per-chunk
  /// service, and unlisting. Mutable: weight structures build lazily
  /// behind the const impact_split() view.
  mutable ImpactIndex impact_index_;

  /// Active-endpoint compression cache (see active_endpoints()); mutable
  /// because policies pull it lazily through the const engine view.
  mutable ActiveEndpoints active_;
  mutable std::uint64_t active_serial_ = 0;  ///< select_serial_ it was built at
  std::uint64_t select_serial_ = 0;          ///< bumped before every select()

  RunResult result_;
};

/// Convenience wrapper: build an engine, run, return the result.
RunResult simulate(const Instance& instance, DispatchPolicy& dispatcher,
                   SchedulePolicy& scheduler, EngineOptions options = {});

/// The default starvation guard for a finite packet sequence: generous
/// (demand-oblivious baselines like rotor can take a full matching cycle
/// per chunk, far beyond the paper's reasonable-schedule horizon), so it
/// only catches outright starvation. Used by the batch Engine constructor
/// when EngineOptions::max_steps == 0 and by StreamRunner trace replays.
Time default_max_steps(const Instance& instance, Delay reconfig_delay);

}  // namespace rdcn

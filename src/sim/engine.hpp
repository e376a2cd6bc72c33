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
//    node holding its Candidate, linked into its edge's priority order and
//    its edge's arrival order; the pool grows once to the high-water
//    backlog and recycles nodes through a free list, and each edge costs
//    four node links plus a dirty flag;
//  * SchedulePolicy::select receives a head list, not the backlog: for
//    every edge with pending work, its highest-priority and its earliest-
//    arriving candidate (one entry when they coincide), sorted by
//    chunk_higher_priority -- at most 2|E| entries. Each round re-reads
//    only the edges whose heads changed since the last one and merges
//    them into the sorted list. Every policy transmits at most one chunk
//    per edge and round, and a non-head candidate shares both endpoints
//    with its edge's heads while ranking below one of them in the
//    policy's own order (chunk priority, or arrival for FIFO, iSLIP and
//    rotor), so the restriction selects exactly what the full backlog
//    would -- b-matching included; only policies whose random draws range
//    over the list (random) see a different draw;
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
//    weight-keyed order-statistic treaps answer impact_of's |H|/w(L)
//    split in O(log n) instead of scanning the queues of the candidate
//    edge's endpoints. The engine feeds the index at the three points
//    where the queues change (dispatch, per-chunk service, unlisting); the
//    weight structures are enabled lazily by the first impact_split() call
//    and decay during long non-impact drains, so non-impact policies pay
//    only the O(1) counters;
//  * per-packet state lives in a sliding window of dense arrays indexed by
//    (id - window base); retired prefixes are compacted away amortized
//    O(1), which is what bounds streaming memory; batch mode preallocates
//    the window and outcome arrays from the instance size;
//  * matching validation uses round-stamped scratch arrays instead of
//    per-round allocations sized by the topology;
//  * time advances event-driven: when no chunk is pending the clock jumps
//    to the next arrival instead of simulating empty steps;
//  * special cases stay out of the round loop: the invariant audit and
//    trace recording are EngineObservers, and restricted migration and
//    stage-mutation requeues share one requeue routine.

#include <functional>
#include <memory>
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
  /// Record per-step blocking information into RunResult::trace (needed by
  /// the charging auditor and the figure benches; an EngineObserver beside
  /// the invariant auditor). Only meaningful with speedup_rounds == 1,
  /// endpoint_capacity == 1 and reconfig_delay == 0 (the analysis model).
  /// Batch mode only.
  bool record_trace = false;
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
  /// probes the gap for queued packets. Incompatible with record_trace.
  /// Batch mode only.
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
/// assigned in order of first appearance in the priority-sorted head
/// list, so they are deterministic in the engine state.
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

/// Per-step record used by the charging auditor: for every packet pending
/// at the step, whether one of its chunks was transmitted, and if not,
/// which packet's transmitted chunk blocked it.
struct StepPacketRecord {
  PacketIndex packet = 0;
  bool transmitted = false;
  PacketIndex blocker = -1;  ///< valid iff !transmitted
};

struct StepRecord {
  Time time = 0;
  std::vector<StepPacketRecord> packets;
  std::size_t matching_size = 0;
};

struct RunResult {
  std::vector<PacketOutcome> outcomes;  ///< batch mode only; empty streamed
  double total_cost = 0.0;     ///< total weighted fractional latency
  double reconfig_cost = 0.0;  ///< share routed over the reconfigurable layer
  double fixed_cost = 0.0;     ///< share routed over fixed direct links
  Time makespan = 0;           ///< last completion time
  Time steps_simulated = 0;
  std::vector<StepRecord> trace;  ///< nonempty iff record_trace
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
  /// through `sink`. record_trace and redispatch_queued are unavailable.
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
  /// is incompatible with record_trace and redispatch_queued.
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
  std::size_t dead_edge_count() const noexcept { return dead_edges_; }

  /// candidate_edges_into() restricted to alive edges -- what dispatchers
  /// route over. The common no-failures case is a pass-through (zero-cost:
  /// one integer compare).
  void viable_edges_into(NodeIndex source, NodeIndex destination,
                         std::vector<EdgeIndex>& out) const;

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
  std::size_t in_flight() const noexcept { return in_flight_; }
  /// Current / peak number of resident per-packet window slots -- the
  /// memory-bounding quantity: O(in-flight span), not O(total served).
  std::size_t resident_slots() const noexcept { return state_.size(); }
  std::size_t peak_resident_slots() const noexcept { return peak_resident_; }
  std::uint64_t packets_dispatched() const noexcept { return dispatched_count_; }
  std::uint64_t packets_retired() const noexcept { return retired_count_; }

  // --- read-only view for policies ---------------------------------------

  const Topology& topology() const noexcept { return *topology_; }
  const EngineOptions& options() const noexcept { return options_; }
  Time now() const noexcept { return now_; }

  /// Packets pending on the reconfigurable layer: the queues' total length.
  std::size_t pending_count() const noexcept { return pending_count_; }

  /// The head list SchedulePolicy::select receives: for every edge with
  /// pending work, its highest-priority and its earliest-arriving
  /// candidate (one entry when they coincide), in decreasing chunk
  /// priority. Refreshed at the start of each scheduling round, so between
  /// rounds it may still show packets that finished or miss ones that
  /// arrived since.
  const std::vector<Candidate>& head_candidates() const noexcept { return heads_; }

  /// Calls visit(const Candidate&) for every candidate pending on edge
  /// `e`, in decreasing chunk priority.
  template <typename Visit>
  void for_each_pending_on(EdgeIndex e, Visit&& visit) const {
    for (std::int32_t n = queues_[static_cast<std::size_t>(e)].first; n >= 0;
         n = nodes_[static_cast<std::size_t>(n)].next) {
      visit(nodes_[static_cast<std::size_t>(n)].candidate);
    }
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
  /// Every pending candidate, edge by edge. O(|E| + pending).
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

  /// O(log n) |H_p(e)| / w(L_p(e)) split at `threshold` = w_p/d(e) -- the
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
  struct PacketState {
    RouteDecision route;
    Time arrival = 0;
    Weight weight = 0.0;
    /// Endpoints kept per packet so stage mutations can re-dispatch or
    /// route-check in-flight packets without an Instance (streaming mode
    /// has no packet sequence to look them up in).
    NodeIndex source = 0;
    NodeIndex destination = 0;
    bool retired = false;
  };

  /// One pending packet: its Candidate, linked into its edge's priority
  /// order (prev/next) and arrival order (older/newer). A free node keeps
  /// the free list in `next`.
  struct QueueNode {
    Candidate candidate;
    std::int32_t prev = -1, next = -1;
    std::int32_t older = -1, newer = -1;
  };
  /// One edge's queue: both ends of both orders, and whether its heads
  /// changed since the head list last read them.
  struct EdgeQueue {
    std::int32_t first = -1;   ///< highest priority: the priority head
    std::int32_t last = -1;    ///< lowest priority
    std::int32_t oldest = -1;  ///< earliest arrival: the arrival head
    std::int32_t newest = -1;
    bool dirty = false;
  };

  void init(EngineOptions options);
  std::size_t slot(PacketIndex p) const {
    return static_cast<std::size_t>(p - window_base_);
  }
  /// Creates the window slot for the next sequential packet id.
  void append_slot(const Packet& packet);
  /// Moves a finished packet's outcome out of the window through the sink
  /// and compacts the window's retired prefix. `dropped` retires it
  /// without completion (outcome.dropped; partial latency kept).
  void retire_packet(PacketIndex packet, bool dropped = false);
  void compact_window();
  /// Applies a dispatch decision to a packet (enqueue on edge or fixed).
  void apply_route(const Packet& packet, const RouteDecision& route);
  /// Links a fresh node for `candidate` into its edge's two orders.
  void enqueue(const Candidate& candidate);
  /// Unlinks node `n` from its edge's orders and frees it.
  void dequeue(std::int32_t n);
  /// Flags edge `e` for the next head refresh; called before each change
  /// to its heads, so the first call counts the entries the list drops.
  void mark_dirty(EdgeIndex e);
  /// Re-reads the heads of the dirty edges and merges them into the
  /// sorted head list.
  void refresh_heads();
  /// Removes a packet from its edge queue and the impact index; returns
  /// its untransmitted chunk count.
  std::int64_t unlist_pending(PacketIndex packet);
  /// Unlists every pending packet `pick` selects and hands it back to the
  /// dispatcher in (arrival, id) order, so re-dispatch is deterministic
  /// and arrival-fair. A packet that already transmitted a chunk, has no
  /// surviving route, or meets DeadPolicy::Drop is dropped instead. With
  /// `stats` (the stage-mutation path) requeues and drops are counted and
  /// requeues reported to observers; restricted migration passes null.
  template <typename Pick>
  void requeue_pending(Pick pick, DeadPolicy policy, MutationStats* stats);
  /// One scheduling round; returns number of chunks transmitted.
  std::size_t schedule_round();
  /// Verifies the incremental impact index against a rebuild from scratch
  /// (integer loads always; treap splits when the weight structures are
  /// live). Throws std::logic_error on any mismatch. Called after every
  /// apply_mutation -- mutations are cold, rebuilds are O(n log n).
  void crosscheck_impact_index();

  const Instance* instance_ = nullptr;  ///< null in streaming mode
  const Topology* topology_ = nullptr;
  DispatchPolicy* dispatcher_;
  SchedulePolicy* scheduler_;
  EngineOptions options_;
  RetireSink sink_;  ///< the caller's, or batch mode's outcome collector
  /// The invariant auditor (options_.audit) and the trace recorder
  /// (options_.record_trace), in that order; empty by default.
  std::vector<std::unique_ptr<EngineObserver>> observers_;
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

  /// Sliding per-packet window: slot i holds packet window_base_ + i.
  /// Slots are appended in id order at dispatch and compacted away once a
  /// retired prefix accumulates.
  PacketIndex window_base_ = 0;
  std::size_t front_retired_ = 0;  ///< length of the window's retired prefix
  std::vector<PacketState> state_;
  std::vector<PacketOutcome> outcomes_;
  std::size_t in_flight_ = 0;
  std::size_t peak_resident_ = 0;
  std::uint64_t dispatched_count_ = 0;
  std::uint64_t retired_count_ = 0;
  std::uint64_t dropped_count_ = 0;
  std::uint64_t requeued_count_ = 0;

  /// Stage-mutation state. dead_edges_ == 0 is the steady-state fast path:
  /// edge_alive() and viable_edges_into() reduce to one compare, so runs
  /// without mutations pay nothing. step_open_ guards the step-boundary
  /// contract of apply_mutation.
  std::vector<char> edge_alive_;
  std::size_t dead_edges_ = 0;
  bool step_open_ = false;
  /// Requeue-path scratch (cold): the packets requeue_pending handles, and
  /// the route-check buffer behind has_viable_route.
  std::vector<PacketIndex> requeue_scratch_;
  mutable std::vector<EdgeIndex> route_scratch_;

  /// The pending work: one queue per edge over a pooled node arena (free
  /// list threaded through QueueNode::next), the sorted head list handed
  /// to the scheduler (and the buffer its refresh merges into), the edges
  /// whose heads it has yet to re-read, and how many list entries those
  /// edges held when they changed.
  std::vector<EdgeQueue> queues_;
  std::vector<QueueNode> nodes_;
  std::int32_t free_node_ = -1;
  std::size_t pending_count_ = 0;
  std::vector<Candidate> heads_, spare_heads_;
  std::vector<EdgeIndex> dirty_edges_;
  std::size_t dropped_heads_ = 0;

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

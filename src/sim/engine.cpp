#include "sim/engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "sim/drive.hpp"

namespace rdcn {

namespace {

/// Records RunResult::trace: one StepRecord per step, listing every pending
/// packet with whether it transmitted and, if not, its blocker -- the
/// transmitting packet that holds its transmitter or receiver. The round
/// only sees the head list, so the recorder rebuilds the full pending list
/// from the edge queues in priority order; of two blockers the higher-
/// priority one has the lower index. Relies on the analysis model (one
/// round per step, capacity 1, no reconfiguration delay) that record_trace
/// enforces.
class TraceRecorder final : public EngineObserver {
 public:
  TraceRecorder(std::vector<StepRecord>& trace, const Topology& topology)
      : trace_(&trace),
        owner_t_(static_cast<std::size_t>(topology.num_transmitters()), kNone),
        owner_r_(static_cast<std::size_t>(topology.num_receivers()), kNone) {}

  void on_step_begin(const Engine& engine, Time /*previous_now*/) override {
    trace_->push_back(StepRecord{engine.now(), {}, 0});
  }

  void on_round(const Engine& engine, const std::vector<Candidate>& heads,
                const std::vector<std::size_t>& transmitted) override {
    pending_.clear();
    engine.for_each_pending([this](const Candidate& c) { pending_.push_back(c); });
    std::sort(pending_.begin(), pending_.end(), chunk_higher_priority);
    StepRecord& step = trace_->back();
    step.matching_size = transmitted.size();
    for (std::size_t index : transmitted) {
      // Priority keys are unique per packet, so this finds the head itself.
      const Candidate& head = heads[index];
      const auto position = static_cast<std::size_t>(
          std::lower_bound(pending_.begin(), pending_.end(), head, chunk_higher_priority) -
          pending_.begin());
      owner_t_[static_cast<std::size_t>(head.transmitter)] = position;
      owner_r_[static_cast<std::size_t>(head.receiver)] = position;
    }
    step.packets.reserve(pending_.size());
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      const Candidate& c = pending_[i];
      const std::size_t owner = std::min(owner_t_[static_cast<std::size_t>(c.transmitter)],
                                         owner_r_[static_cast<std::size_t>(c.receiver)]);
      StepPacketRecord record;
      record.packet = c.packet;
      record.transmitted = owner == i;
      if (owner != i && owner != kNone) record.blocker = pending_[owner].packet;
      step.packets.push_back(record);
    }
    for (std::size_t index : transmitted) {
      owner_t_[static_cast<std::size_t>(heads[index].transmitter)] = kNone;
      owner_r_[static_cast<std::size_t>(heads[index].receiver)] = kNone;
    }
  }

  void on_dispatch(const Engine&, const Packet&, const RouteDecision&) override {}
  void on_selection(const Engine&, const std::vector<Candidate>&,
                    const std::vector<std::size_t>&) override {}
  void on_retire(const Engine&, PacketIndex, const PacketOutcome&) override {}
  void on_step_end(const Engine&) override {}

 private:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<StepRecord>* trace_;
  std::vector<Candidate> pending_;  ///< this round's full pending list
  std::vector<std::size_t> owner_t_, owner_r_;  ///< endpoint -> transmitting index
};

}  // namespace

Engine::Engine(const Instance& instance, DispatchPolicy& dispatcher,
               SchedulePolicy& scheduler, EngineOptions options)
    : instance_(&instance),
      topology_(&instance.topology()),
      dispatcher_(&dispatcher),
      scheduler_(&scheduler),
      sink_([this](RetiredPacket&& retired) {
        result_.outcomes[static_cast<std::size_t>(retired.id)] = std::move(retired.outcome);
      }) {
  const std::string error = instance.validate();
  if (!error.empty()) throw std::invalid_argument("invalid instance: " + error);
  init(options);
  if (options_.max_steps == 0) {
    options_.max_steps = default_max_steps(instance, options_.reconfig_delay);
  }
  // Batch mode knows the full packet count up front: size the window and
  // outcome arrays once so dispatch never grows them incrementally.
  const std::size_t n = instance.num_packets();
  state_.reserve(n);
  outcomes_.reserve(n);
  impact_index_.reserve_pending(n);
  result_.outcomes.resize(n);
}

Engine::Engine(const Topology& topology, DispatchPolicy& dispatcher,
               SchedulePolicy& scheduler, EngineOptions options, RetireSink sink)
    : topology_(&topology),
      dispatcher_(&dispatcher),
      scheduler_(&scheduler),
      sink_(std::move(sink)) {
  const std::string error = topology.validate();
  if (!error.empty()) throw std::invalid_argument("invalid topology: " + error);
  if (!sink_) throw std::invalid_argument("streaming engine needs a retirement sink");
  if (options.record_trace) {
    throw std::invalid_argument("trace recording requires batch mode");
  }
  if (options.redispatch_queued) {
    throw std::invalid_argument("queued redispatch requires batch mode");
  }
  init(options);
}

void Engine::init(EngineOptions options) {
  options_ = options;
  if (options_.speedup_rounds < 1) throw std::invalid_argument("speedup_rounds must be >= 1");
  if (options_.endpoint_capacity < 1) {
    throw std::invalid_argument("endpoint_capacity must be >= 1");
  }
  if (options_.reconfig_delay < 0) throw std::invalid_argument("reconfig_delay must be >= 0");
  if (options_.reconfig_delay > 0 && options_.endpoint_capacity != 1) {
    throw std::invalid_argument("reconfig_delay requires endpoint_capacity == 1");
  }
  if (options_.record_trace &&
      (options_.speedup_rounds != 1 || options_.endpoint_capacity != 1 ||
       options_.reconfig_delay != 0 || options_.redispatch_queued)) {
    throw std::invalid_argument(
        "trace recording requires the analysis model (speedup 1, capacity 1, no "
        "reconfiguration delay, non-migratory)");
  }
  const auto num_t = static_cast<std::size_t>(topology_->num_transmitters());
  const auto num_r = static_cast<std::size_t>(topology_->num_receivers());
  transmitter_config_.resize(num_t);
  receiver_config_.resize(num_r);
  edge_used_round_.assign(static_cast<std::size_t>(topology_->num_edges()), 0);
  load_t_round_.assign(num_t, 0);
  load_r_round_.assign(num_r, 0);
  load_t_.assign(num_t, 0);
  load_r_.assign(num_r, 0);
  active_.transmitter_rank_.assign(num_t, -1);
  active_.receiver_rank_.assign(num_r, -1);
  impact_index_.attach(*topology_);
  const auto num_edges = static_cast<std::size_t>(topology_->num_edges());
  queues_.assign(num_edges, EdgeQueue{});
  dirty_edges_.reserve(num_edges);  // an edge is listed at most once
  edge_alive_.assign(num_edges, 1);
  edge_meta_.resize(num_edges);
  for (std::size_t i = 0; i < num_edges; ++i) {
    const ReconfigEdge& edge = topology_->edge(static_cast<EdgeIndex>(i));
    EdgeMeta& meta = edge_meta_[i];
    const auto du =
        static_cast<double>(topology_->transmitter_attach_delay(edge.transmitter));
    const auto dv = static_cast<double>(topology_->receiver_attach_delay(edge.receiver));
    const auto d = static_cast<double>(edge.delay);
    meta.base_coeff = du + (d + 1.0) / 2.0 + dv;
    meta.delay = d;
    meta.attach_tail = topology_->transmitter_attach_delay(edge.transmitter) +
                       topology_->receiver_attach_delay(edge.receiver);
  }
  // A selection is a (b-)matching, so its size is bounded a priori; sizing
  // the round-loop scratch here keeps even the first rounds off the heap.
  const std::size_t matching_bound =
      std::min(num_t, num_r) * static_cast<std::size_t>(options_.endpoint_capacity);
  selection_.mutable_indices().reserve(matching_bound);
  finished_scratch_.reserve(matching_bound);
  if (options_.audit) observers_.push_back(make_invariant_auditor());
  if (options_.record_trace) {
    observers_.push_back(std::make_unique<TraceRecorder>(result_.trace, *topology_));
  }
  if (options_.probe.enabled) {
    probe_store_ = std::make_unique<Probe>(options_.probe);
    probe_ = probe_store_.get();
  }
}

// rdcn-lint: hot
void Engine::append_slot(const Packet& packet) {
  if (packet.id != window_base_ + static_cast<PacketIndex>(state_.size())) {
    throw std::logic_error("packets must be dispatched in sequence-id order");
  }
  PacketState ps;
  ps.arrival = packet.arrival;
  ps.weight = packet.weight;
  ps.source = packet.source;
  ps.destination = packet.destination;
  state_.push_back(ps);
  outcomes_.emplace_back();
  peak_resident_ = std::max(peak_resident_, state_.size());
  ++in_flight_;
  ++dispatched_count_;
  if (probe_) probe_->count(Counter::PacketsDispatched);
}

// rdcn-lint: hot
void Engine::retire_packet(PacketIndex packet, bool dropped) {
  const std::size_t s = slot(packet);
  PacketOutcome& outcome = outcomes_[s];
  outcome.dropped = dropped;
  for (const auto& observer : observers_) {
    if (dropped) {
      observer->on_drop(*this, packet, outcome);
    } else {
      observer->on_retire(*this, packet, outcome);
    }
  }
  state_[s].retired = true;
  --in_flight_;
  ++(dropped ? dropped_count_ : retired_count_);
  if (probe_) probe_->count(dropped ? Counter::PacketsDropped : Counter::PacketsRetired);
  sink_(RetiredPacket{packet, state_[s].arrival, state_[s].weight, std::move(outcome)});
  compact_window();
}

// rdcn-lint: hot
void Engine::compact_window() {
  while (front_retired_ < state_.size() && state_[front_retired_].retired) {
    ++front_retired_;
  }
  // Amortized O(1) per packet: the prefix erase costs O(window) and only
  // fires once the retired prefix covers half the (>= 128 slot) window.
  if (front_retired_ < 64 || front_retired_ * 2 < state_.size()) return;
  const auto n = static_cast<std::ptrdiff_t>(front_retired_);
  state_.erase(state_.begin(), state_.begin() + n);
  outcomes_.erase(outcomes_.begin(), outcomes_.begin() + n);
  window_base_ += static_cast<PacketIndex>(front_retired_);
  front_retired_ = 0;
}

// rdcn-lint: hot
void Engine::apply_route(const Packet& packet, const RouteDecision& route) {
  for (const auto& observer : observers_) observer->on_dispatch(*this, packet, route);
  const std::size_t s = slot(packet.id);
  auto& ps = state_[s];
  auto& outcome = outcomes_[s];
  ps.route = route;
  outcome.route = route;

  if (route.use_fixed) {
    const auto delay = topology_->fixed_link_delay(packet.source, packet.destination);
    if (!delay) throw std::logic_error("dispatcher chose a non-existent fixed link");
    // Fixed links are uncapacitated: transmission starts at the decision
    // time (== arrival for the normal dispatch path; later when a queued
    // packet migrates to the fixed layer).
    const Time start = std::max(now_, packet.arrival);
    outcome.completion = start + *delay;
    outcome.weighted_latency =
        packet.weight * static_cast<double>(outcome.completion - packet.arrival);
    result_.fixed_cost += outcome.weighted_latency;
    result_.total_cost += outcome.weighted_latency;
    result_.makespan = std::max(result_.makespan, outcome.completion);
    retire_packet(packet.id);
  } else {
    if (route.edge < 0 || route.edge >= topology_->num_edges()) {
      throw std::logic_error("dispatcher chose an invalid edge");
    }
    if (!edge_alive(route.edge)) {
      throw std::logic_error("dispatcher chose an edge killed by a stage mutation");
    }
    const ReconfigEdge& edge = topology_->edge(route.edge);
    if (topology_->source_of(edge.transmitter) != packet.source ||
        topology_->destination_of(edge.receiver) != packet.destination) {
      throw std::logic_error("dispatcher chose an edge outside E_p");
    }
    Candidate candidate;
    candidate.packet = packet.id;
    candidate.edge = route.edge;
    candidate.transmitter = edge.transmitter;
    candidate.receiver = edge.receiver;
    candidate.chunk_weight = packet.weight / static_cast<double>(edge.delay);
    candidate.arrival = packet.arrival;
    candidate.remaining = edge.delay;
    impact_index_.add_chunks(edge.transmitter, edge.receiver, route.edge,
                             candidate.chunk_weight, edge.delay);
    enqueue(candidate);

    outcome.chunk_transmit_steps.reserve(static_cast<std::size_t>(edge.delay));
  }
}

// rdcn-lint: hot
void Engine::enqueue(const Candidate& candidate) {
  EdgeQueue& q = queues_[static_cast<std::size_t>(candidate.edge)];
  // Priority order: walk in from both ends at once and stop at whichever
  // meets the insertion point first, so the cost is twice the distance to
  // the nearer end. (Policies that serve priority heads leave light
  // packets queued and new arrivals land near the top; FIFO service leaves
  // a mix.) `above` ends as the node to insert after, -1 for the top.
  std::int32_t above = q.last;
  std::int32_t below = q.first;
  while (above >= 0 &&
         chunk_higher_priority(candidate, nodes_[static_cast<std::size_t>(above)].candidate)) {
    if (!chunk_higher_priority(nodes_[static_cast<std::size_t>(below)].candidate, candidate)) {
      above = nodes_[static_cast<std::size_t>(below)].prev;
      break;
    }
    above = nodes_[static_cast<std::size_t>(above)].prev;
    below = nodes_[static_cast<std::size_t>(below)].next;
  }
  // Arrival order, walked back from the newest: ids are dispatched in
  // arrival order, so a fresh dispatch appends; a requeued (older) packet
  // walks back to its place.
  std::int32_t older = q.newest;
  while (older >= 0 &&
         nodes_[static_cast<std::size_t>(older)].candidate.packet > candidate.packet) {
    older = nodes_[static_cast<std::size_t>(older)].older;
  }
  if (above < 0 || older < 0) mark_dirty(candidate.edge);  // a new head

  std::int32_t n = free_node_;
  if (n >= 0) {
    free_node_ = nodes_[static_cast<std::size_t>(n)].next;
  } else {
    n = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();  // rdcn-lint: allow(hot-alloc) -- the pool grows to the high-water backlog once
  }
  QueueNode& node = nodes_[static_cast<std::size_t>(n)];
  node.candidate = candidate;
  node.prev = above;
  node.next = above >= 0 ? nodes_[static_cast<std::size_t>(above)].next : q.first;
  (above >= 0 ? nodes_[static_cast<std::size_t>(above)].next : q.first) = n;
  (node.next >= 0 ? nodes_[static_cast<std::size_t>(node.next)].prev : q.last) = n;
  node.older = older;
  node.newer = older >= 0 ? nodes_[static_cast<std::size_t>(older)].newer : q.oldest;
  (older >= 0 ? nodes_[static_cast<std::size_t>(older)].newer : q.oldest) = n;
  (node.newer >= 0 ? nodes_[static_cast<std::size_t>(node.newer)].older : q.newest) = n;
  ++pending_count_;
}

// rdcn-lint: hot
void Engine::dequeue(std::int32_t n) {
  QueueNode& node = nodes_[static_cast<std::size_t>(n)];
  EdgeQueue& q = queues_[static_cast<std::size_t>(node.candidate.edge)];
  if (q.first == n || q.oldest == n) mark_dirty(node.candidate.edge);
  (node.prev >= 0 ? nodes_[static_cast<std::size_t>(node.prev)].next : q.first) = node.next;
  (node.next >= 0 ? nodes_[static_cast<std::size_t>(node.next)].prev : q.last) = node.prev;
  (node.older >= 0 ? nodes_[static_cast<std::size_t>(node.older)].newer : q.oldest) =
      node.newer;
  (node.newer >= 0 ? nodes_[static_cast<std::size_t>(node.newer)].older : q.newest) =
      node.older;
  node.next = free_node_;
  free_node_ = n;
  --pending_count_;
}

// rdcn-lint: hot
void Engine::mark_dirty(EdgeIndex e) {
  EdgeQueue& q = queues_[static_cast<std::size_t>(e)];
  if (q.dirty) return;
  q.dirty = true;
  dirty_edges_.push_back(e);  // rdcn-lint: allow(hot-alloc) -- reserved to |E| in init
  // Every head change passes here before it happens, so on an edge's
  // first change since the last refresh its heads are still the entries
  // the head list holds for it: the ones the refresh drops.
  if (q.first >= 0) dropped_heads_ += q.oldest == q.first ? 1 : 2;
}

// rdcn-lint: hot
void Engine::refresh_heads() {
  if (dirty_edges_.empty()) return;
  Probe::Span span(probe_, Phase::MergeCompact);
  // The dirty edges' current heads, sorted by priority.
  fresh_heads_.clear();
  for (EdgeIndex e : dirty_edges_) {
    const EdgeQueue& q = queues_[static_cast<std::size_t>(e)];
    if (q.first < 0) continue;  // drained
    fresh_heads_.push_back(nodes_[static_cast<std::size_t>(q.first)].candidate);  // rdcn-lint: allow(hot-alloc) -- grows to the high-water head count once
    if (q.oldest != q.first) {
      fresh_heads_.push_back(nodes_[static_cast<std::size_t>(q.oldest)].candidate);  // rdcn-lint: allow(hot-alloc) -- as above
    }
  }
  if (probe_) probe_->count(Counter::CandidatesMerged, fresh_heads_.size());
  std::sort(fresh_heads_.begin(), fresh_heads_.end(), chunk_higher_priority);

  // One merge pass into the spare buffer: the old entries minus the dirty
  // edges', and the fresh ones, both in priority order. The next fresh
  // entry is held by value, so stores do not force it to be reloaded;
  // once they are used up its chunk weight of -inf fails the cheap
  // pre-check.
  const EdgeQueue* const queues = queues_.data();
  const std::size_t k = fresh_heads_.size();
  spare_heads_.resize(heads_.size() - dropped_heads_ + k);  // rdcn-lint: allow(hot-alloc) -- at most 2|E| entries, grow-once
  Candidate* out = spare_heads_.data();
  constexpr double kUsedUp = -std::numeric_limits<double>::infinity();
  Candidate pending;
  pending.chunk_weight = kUsedUp;
  std::size_t next = 0;
  if (k > 0) pending = fresh_heads_.front();
  for (const Candidate& c : heads_) {
    if (queues[static_cast<std::size_t>(c.edge)].dirty) continue;
    while (pending.chunk_weight >= c.chunk_weight && chunk_higher_priority(pending, c)) {
      *out++ = pending;
      if (++next < k) {
        pending = fresh_heads_[next];
      } else {
        pending.chunk_weight = kUsedUp;
      }
    }
    *out++ = c;
  }
  for (; next < k; ++next) *out++ = fresh_heads_[next];
  heads_.swap(spare_heads_);
  for (EdgeIndex e : dirty_edges_) queues_[static_cast<std::size_t>(e)].dirty = false;
  dirty_edges_.clear();
  dropped_heads_ = 0;
}

// rdcn-lint: hot
ImpactSplit Engine::impact_split(EdgeIndex e, double threshold) const {
  // Timed at query granularity (rebuild + deferred-event flush + lookup):
  // per-update spans inside add_chunks would cost more than the O(1)
  // counter work they measure. Nests under Dispatch (or Select).
  Probe::Span span(probe_, Phase::IndexMaintenance);
  if (probe_) probe_->count(Counter::ImpactQueries);
  if (!impact_index_.weight_ready()) {
    impact_index_.rebuild([this](const auto& add) { for_each_pending(add); });
  }
  return impact_index_.edge_split(e, threshold);
}

// rdcn-lint: hot
const ActiveEndpoints& Engine::active_endpoints(
    const std::vector<Candidate>& candidates) const {
  // Round-stamped cache for the engine's own head list; a foreign list
  // (benches driving select() directly) rebuilds every call. Rank entries
  // of endpoints absent from `candidates` are left stale on purpose --
  // consumers may only look up endpoints of the candidates themselves.
  const bool own = &candidates == &heads_;
  if (own && active_serial_ == select_serial_ && select_serial_ != 0) return active_;
  active_.transmitters.clear();
  active_.receivers.clear();
  for (const Candidate& c : candidates) {
    const auto t = static_cast<std::size_t>(c.transmitter);
    const auto r = static_cast<std::size_t>(c.receiver);
    // First-appearance check via the rank array: a stale rank either lies
    // outside the current active list or points at a different endpoint.
    const std::int32_t t_rank = active_.transmitter_rank_[t];
    if (t_rank < 0 || static_cast<std::size_t>(t_rank) >= active_.transmitters.size() ||
        active_.transmitters[static_cast<std::size_t>(t_rank)] != c.transmitter) {
      active_.transmitter_rank_[t] = static_cast<std::int32_t>(active_.transmitters.size());
      active_.transmitters.push_back(c.transmitter);  // rdcn-lint: allow(hot-alloc) -- grows to high-water endpoint count
    }
    const std::int32_t r_rank = active_.receiver_rank_[r];
    if (r_rank < 0 || static_cast<std::size_t>(r_rank) >= active_.receivers.size() ||
        active_.receivers[static_cast<std::size_t>(r_rank)] != c.receiver) {
      active_.receiver_rank_[r] = static_cast<std::int32_t>(active_.receivers.size());
      active_.receivers.push_back(c.receiver);  // rdcn-lint: allow(hot-alloc) -- grows to high-water endpoint count
    }
  }
  active_serial_ = own ? select_serial_ : 0;
  return active_;
}

// rdcn-lint: hot
void Engine::inject(const Packet& packet) {
  if (packet.arrival != now_) {
    throw std::logic_error("inject: packet.arrival must equal the current step");
  }
  Probe::Span span(probe_, Phase::Dispatch);
  append_slot(packet);
  if (dead_edges_ != 0 && !has_viable_route(packet.source, packet.destination)) {
    retire_packet(packet.id, /*dropped=*/true);  // pair severed; nothing to route over
  } else {
    apply_route(packet, dispatcher_->dispatch(*this, packet));
  }
}

// rdcn-lint: hot
std::int64_t Engine::unlist_pending(PacketIndex packet) {
  // Cold path (requeues): walk the packet's edge queue to its node.
  const PacketState& ps = state_[slot(packet)];
  std::int32_t n =
      ps.route.use_fixed ? -1 : queues_[static_cast<std::size_t>(ps.route.edge)].first;
  while (n >= 0 && nodes_[static_cast<std::size_t>(n)].candidate.packet != packet) {
    n = nodes_[static_cast<std::size_t>(n)].next;
  }
  if (n < 0) throw std::logic_error("unlist_pending: packet is not pending");
  const Candidate c = nodes_[static_cast<std::size_t>(n)].candidate;
  dequeue(n);
  impact_index_.add_chunks(c.transmitter, c.receiver, c.edge, c.chunk_weight, -c.remaining);
  return c.remaining;
}

template <typename Pick>
void Engine::requeue_pending(Pick pick, DeadPolicy policy, MutationStats* stats) {
  requeue_scratch_.clear();
  for_each_pending([&](const Candidate& c) {
    if (pick(c)) requeue_scratch_.push_back(c.packet);
  });
  // Ids are injected in arrival order, so id order is (arrival, id) order.
  std::sort(requeue_scratch_.begin(), requeue_scratch_.end());
  for (PacketIndex p : requeue_scratch_) {
    const std::int64_t remaining = unlist_pending(p);
    const PacketState& ps = state_[slot(p)];
    const Packet packet{p, ps.arrival, ps.weight, ps.source, ps.destination};
    if (policy == DeadPolicy::Requeue && remaining == topology_->edge(ps.route.edge).delay &&
        has_viable_route(packet.source, packet.destination)) {
      if (stats != nullptr) {
        for (const auto& observer : observers_) observer->on_requeue(*this, p);
        ++requeued_count_;
        ++stats->packets_requeued;
        if (probe_) probe_->count(Counter::PacketsRequeued);
      }
      apply_route(packet, dispatcher_->dispatch(*this, packet));
    } else {
      retire_packet(p, /*dropped=*/true);
      if (stats != nullptr) ++stats->packets_dropped;
    }
  }
}

// rdcn-lint: hot
void Engine::viable_edges_into(NodeIndex source, NodeIndex destination,
                               std::vector<EdgeIndex>& out) const {
  topology_->candidate_edges_into(source, destination, out);
  if (dead_edges_ == 0) return;  // steady state: pure pass-through
  std::size_t write = 0;
  for (EdgeIndex e : out) {
    if (edge_alive_[static_cast<std::size_t>(e)]) out[write++] = e;
  }
  out.resize(write);
}

bool Engine::has_viable_route(NodeIndex source, NodeIndex destination) const {
  if (topology_->fixed_link_delay(source, destination)) return true;
  topology_->candidate_edges_into(source, destination, route_scratch_);
  if (dead_edges_ == 0) return !route_scratch_.empty();
  for (EdgeIndex e : route_scratch_) {
    if (edge_alive_[static_cast<std::size_t>(e)]) return true;
  }
  return false;
}

MutationStats Engine::apply_mutation(const StageMutation& mutation) {
  if (step_open_) {
    throw std::logic_error("apply_mutation: only valid at a step boundary");
  }
  if (options_.record_trace || options_.redispatch_queued) {
    throw std::invalid_argument(
        "stage mutations are incompatible with record_trace / redispatch_queued");
  }
  // Validate every index and scalar before changing any state, so a
  // rejected mutation leaves the engine exactly as it was.
  const auto require = [](bool ok, const char* message) {
    if (!ok) throw std::invalid_argument(std::string("apply_mutation: ") + message);
  };
  const auto valid_edge = [&](EdgeIndex e) { return e >= 0 && e < topology_->num_edges(); };
  const auto valid_rack = [&](NodeIndex r) {
    return r >= 0 && (r < topology_->num_sources() || r < topology_->num_destinations());
  };
  const auto all_of = [](const auto& items, const auto& valid) {
    return std::all_of(items.begin(), items.end(), valid);
  };
  require(all_of(mutation.restore_edges, valid_edge), "restore_edges index out of range");
  require(all_of(mutation.restore_racks, valid_rack), "restore_racks index out of range");
  require(all_of(mutation.kill_edges, valid_edge), "kill_edges index out of range");
  require(all_of(mutation.kill_racks, valid_rack), "kill_racks index out of range");
  require(mutation.speedup_rounds >= 0, "speedup_rounds must be >= 1");
  require(mutation.endpoint_capacity >= 0, "endpoint_capacity must be >= 1");
  require(mutation.endpoint_capacity <= 1 || options_.reconfig_delay == 0,
          "reconfig_delay requires endpoint_capacity == 1");

  MutationStats stats;
  const auto num_edges = static_cast<std::size_t>(topology_->num_edges());
  const auto rack_touches = [&](const ReconfigEdge& edge, NodeIndex r) {
    return topology_->source_of(edge.transmitter) == r ||
           topology_->destination_of(edge.receiver) == r;
  };
  const auto set_alive = [&](EdgeIndex e, char alive) {
    char& state = edge_alive_[static_cast<std::size_t>(e)];
    if (state == alive) return;
    state = alive;
    if (alive) {
      --dead_edges_;
      ++stats.edges_restored;
    } else {
      ++dead_edges_;
      ++stats.edges_killed;
    }
  };
  const auto set_racks_alive = [&](const std::vector<NodeIndex>& racks, char alive) {
    for (NodeIndex r : racks) {
      for (std::size_t i = 0; i < num_edges; ++i) {
        const auto e = static_cast<EdgeIndex>(i);
        if (rack_touches(topology_->edge(e), r)) set_alive(e, alive);
      }
    }
  };

  // Restores before kills: an edge named by both stays dead.
  for (EdgeIndex e : mutation.restore_edges) set_alive(e, 1);
  set_racks_alive(mutation.restore_racks, 1);
  for (EdgeIndex e : mutation.kill_edges) set_alive(e, 0);
  set_racks_alive(mutation.kill_racks, 0);

  // In-flight packets stranded on freshly-killed edges. Edges dead before
  // this call carry no candidates, so picking any dead edge finds exactly
  // the newly stranded set.
  if (stats.edges_killed != 0) {
    requeue_pending([this](const Candidate& c) { return !edge_alive(c.edge); },
                    mutation.dead_policy, &stats);
  }

  if (mutation.speedup_rounds != 0) options_.speedup_rounds = mutation.speedup_rounds;
  if (mutation.endpoint_capacity != 0) {
    options_.endpoint_capacity = mutation.endpoint_capacity;
    // The matching bound may have grown; keep the round loop off the heap.
    const auto num_t = static_cast<std::size_t>(topology_->num_transmitters());
    const auto num_r = static_cast<std::size_t>(topology_->num_receivers());
    const std::size_t matching_bound =
        std::min(num_t, num_r) * static_cast<std::size_t>(options_.endpoint_capacity);
    selection_.mutable_indices().reserve(matching_bound);
    finished_scratch_.reserve(matching_bound);
  }

  crosscheck_impact_index();
  if (probe_) probe_->count(Counter::StageMutations);
  return stats;
}

void Engine::crosscheck_impact_index() {
  // Rebuild the index from the edge queues alone and require bitwise
  // agreement: integer loads always, treap splits when the live index has
  // its weight structures up (canonical hash-priority shape makes the
  // incremental and rebuilt treaps structurally identical). Mutations are
  // cold, so the O(n log n) rebuild is free at steady state.
  ImpactIndex fresh;
  fresh.attach(*topology_);
  for_each_pending([&fresh](const Candidate& c) {
    fresh.add_chunks(c.transmitter, c.receiver, c.edge, c.chunk_weight, c.remaining);
  });
  const auto num_edges = static_cast<std::size_t>(topology_->num_edges());
  for (std::size_t i = 0; i < num_edges; ++i) {
    const auto e = static_cast<EdgeIndex>(i);
    if (impact_index_.edge_load(e) != fresh.edge_load(e)) {
      throw std::logic_error(
          "apply_mutation: impact index edge load diverged from rebuild");
    }
  }
  if (impact_index_.weight_ready()) {
    fresh.rebuild([this](const auto& add) { for_each_pending(add); });
    for_each_pending([&](const Candidate& c) {
      const ImpactSplit live = impact_index_.edge_split(c.edge, c.chunk_weight);
      const ImpactSplit ref = fresh.edge_split(c.edge, c.chunk_weight);
      if (live.heavier != ref.heavier || live.lighter_weight != ref.lighter_weight) {
        throw std::logic_error(
            "apply_mutation: impact index weight split diverged from rebuild");
      }
    });
  }
}

// rdcn-lint: hot
std::size_t Engine::schedule_round() {
  if (pending_count_ == 0) return 0;
  refresh_heads();

  if (probe_) {
    probe_->count(Counter::Rounds);
    probe_->gauge(Gauge::PendingCandidates, pending_count_);
    probe_->gauge(Gauge::InFlight, in_flight_);
    probe_->gauge(Gauge::TreapNodes, impact_index_.live_weight_nodes());
    probe_->set(Counter::IndexRebuilds, impact_index_.rebuilds());
  }

  ++select_serial_;  // invalidates the active-endpoint map of the last round
  selection_.clear();
  {
    Probe::Span span(probe_, Phase::Select);
    scheduler_->select(*this, now_, heads_, selection_);
  }
  const std::vector<std::size_t>& selected = selection_.indices();
  if (probe_ && active_serial_ == select_serial_) {
    // The policy built the active-endpoint map this round; sample it.
    probe_->gauge(Gauge::ActiveTransmitters, active_.transmitters.size());
    probe_->gauge(Gauge::ActiveReceivers, active_.receivers.size());
  }

  // The auditor validates first (independently), so a contract violation
  // under audit surfaces as AuditFailure, not as the engine's logic_error.
  for (const auto& observer : observers_) observer->on_selection(*this, heads_, selected);

  // Validate the selection is a (b-)matching: per-endpoint load within
  // capacity, each edge used at most once. Scratch arrays are stamped with
  // the round serial so nothing is re-zeroed per round.
  ++round_serial_;
  const std::uint64_t round = round_serial_;
  {
    Probe::Span validate_span(probe_, Phase::Validate);
    chosen_round_.resize(std::max(chosen_round_.size(), heads_.size()), 0);
    for (std::size_t index : selected) {
      if (index >= heads_.size() || chosen_round_[index] == round) {
        throw std::logic_error("scheduler returned an invalid candidate index");
      }
      chosen_round_[index] = round;
      const Candidate& c = heads_[index];
      const auto e = static_cast<std::size_t>(c.edge);
      const auto t = static_cast<std::size_t>(c.transmitter);
      const auto r = static_cast<std::size_t>(c.receiver);
      if (edge_used_round_[e] == round) {
        throw std::logic_error("scheduler selected one edge twice");
      }
      edge_used_round_[e] = round;
      if (load_t_round_[t] != round) {
        load_t_round_[t] = round;
        load_t_[t] = 0;
      }
      if (load_r_round_[r] != round) {
        load_r_round_[r] = round;
        load_r_[r] = 0;
      }
      if (++load_t_[t] > options_.endpoint_capacity ||
          ++load_r_[r] > options_.endpoint_capacity) {
        throw std::logic_error("scheduler selection exceeds endpoint capacity");
      }
    }

    // Reconfiguration-delay extension: an endpoint only carries a chunk
    // when it is already tuned to that edge; otherwise this selection
    // starts (or retargets) its retuning and the chunk stays queued.
    if (options_.reconfig_delay > 0) {
      // Filter the selection in place: endpoints not yet tuned to their
      // edge keep their chunk queued and drop out of this round's
      // transmit set.
      std::vector<std::size_t>& indices = selection_.mutable_indices();
      std::size_t write = 0;
      for (std::size_t index : indices) {
        const Candidate& c = heads_[index];
        auto& tc = transmitter_config_[static_cast<std::size_t>(c.transmitter)];
        auto& rc = receiver_config_[static_cast<std::size_t>(c.receiver)];
        bool ready = true;
        if (tc.target != c.edge) {
          tc.target = c.edge;
          tc.ready = now_ + options_.reconfig_delay;
          ready = false;
        } else if (now_ < tc.ready) {
          ready = false;
        }
        if (rc.target != c.edge) {
          rc.target = c.edge;
          rc.ready = now_ + options_.reconfig_delay;
          ready = false;
        } else if (now_ < rc.ready) {
          ready = false;
        }
        if (ready) indices[write++] = index;
      }
      indices.resize(write);
    }
  }

  if (probe_) probe_->gauge(Gauge::SelectedPerRound, selected.size());

  for (const auto& observer : observers_) observer->on_round(*this, heads_, selected);

  // Transmit the selected chunks and account their latency; `remaining`
  // counts down on both the head entry and its queue node, and a finished
  // packet leaves its queue at once (its edge's heads refresh next round).
  std::vector<std::size_t>& finished = finished_scratch_;
  finished.clear();
  Probe::Span service_span(probe_, Phase::Service);
  if (probe_) probe_->count(Counter::ChunksTransmitted, selected.size());
  for (std::size_t index : selected) {
    Candidate& c = heads_[index];
    const std::size_t s = slot(c.packet);
    auto& outcome = outcomes_[s];
    const Time completion =
        now_ + 1 + edge_meta_[static_cast<std::size_t>(c.edge)].attach_tail;
    outcome.chunk_transmit_steps.push_back(now_);
    const double latency = c.chunk_weight * static_cast<double>(completion - c.arrival);
    outcome.weighted_latency += latency;
    result_.reconfig_cost += latency;
    result_.total_cost += latency;
    --c.remaining;
    impact_index_.add_chunks(c.transmitter, c.receiver, c.edge, c.chunk_weight, -1);
    // A head entry's node is its edge's priority head or arrival head.
    const EdgeQueue& q = queues_[static_cast<std::size_t>(c.edge)];
    const std::int32_t n =
        nodes_[static_cast<std::size_t>(q.first)].candidate.packet == c.packet ? q.first
                                                                                : q.oldest;
    nodes_[static_cast<std::size_t>(n)].candidate.remaining = c.remaining;
    if (c.remaining == 0) {
      outcome.completion = completion;
      result_.makespan = std::max(result_.makespan, completion);
      dequeue(n);
      finished.push_back(index);  // rdcn-lint: allow(hot-alloc) -- ref to finished_scratch_, reserved in init
    }
  }
  // Retire in head-list (priority) order.
  std::sort(finished.begin(), finished.end());
  for (std::size_t index : finished) retire_packet(heads_[index].packet);
  return selected.size();
}

// rdcn-lint: hot
void Engine::begin_step(const Time* next_arrival) {
  // Cooperative cancellation: null (no deadline armed) is one pointer
  // test; armed is one extra relaxed load. Thrown here, never mid-step,
  // so a cancelled run stops on the same step-edge contract as mutations.
  if (options_.cancel != nullptr && options_.cancel->cancelled()) {
    throw CancelledError("run cancelled at step boundary (deadline exceeded)");
  }
  const Time previous = now_;
  if (pending_count_ == 0 && next_arrival != nullptr && *next_arrival > now_ + 1) {
    now_ = *next_arrival;  // event-driven: jump idle gaps
  } else {
    ++now_;
  }
  ++result_.steps_simulated;
  if (options_.max_steps > 0 && result_.steps_simulated > options_.max_steps) {
    throw std::runtime_error("engine exceeded max_steps; scheduler may be starving packets");
  }
  step_open_ = true;
  for (const auto& observer : observers_) observer->on_step_begin(*this, previous);
}

// rdcn-lint: hot
void Engine::finish_step() {
  if (options_.redispatch_queued) {
    // Restricted migration: packets with every chunk still untransmitted
    // are re-offered to the dispatcher, each unlisted first so it does not
    // see itself as queue pressure.
    requeue_pending(
        [this](const Candidate& c) { return c.remaining == topology_->edge(c.edge).delay; },
        DeadPolicy::Requeue, nullptr);
  }
  for (int round = 0; round < options_.speedup_rounds; ++round) {
    if (!busy() && round > 0) break;
    schedule_round();
  }
  for (const auto& observer : observers_) observer->on_step_end(*this);
  step_open_ = false;
}

RunResult Engine::run(const std::vector<TimedMutation>& schedule) {
  if (instance_ == nullptr) {
    throw std::logic_error("run() requires batch mode; streaming engines are step-driven");
  }
  if (!schedule.empty() && (options_.record_trace || options_.redispatch_queued)) {
    throw std::invalid_argument(
        "staged runs are incompatible with record_trace / redispatch_queued");
  }
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    if (schedule[i].at < schedule[i - 1].at) {
      throw std::invalid_argument("stage schedule must be sorted by time");
    }
  }
  drive_recorded(*this, instance_->packets(), schedule);
  if (probe_) result_.probe = probe_->report();
  return std::move(result_);
}

RunResult simulate(const Instance& instance, DispatchPolicy& dispatcher,
                   SchedulePolicy& scheduler, EngineOptions options) {
  Engine engine(instance, dispatcher, scheduler, options);
  return engine.run();
}

Time default_max_steps(const Instance& instance, Delay reconfig_delay) {
  return instance.horizon_bound() * 64 * (reconfig_delay + 1) + 64;
}

}  // namespace rdcn

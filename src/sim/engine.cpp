#include "sim/engine.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

#include "sim/drive.hpp"

namespace rdcn {

namespace {

/// The head list's two orders as function objects, so that sorting and
/// merging inline them: chunk priority (HeadKinds::Both and Priority) and
/// packet id (Arrival). `exhaust` turns a candidate into one that ranks
/// after every real entry -- the merge's used-up marker.
struct PriorityOrder {
  bool operator()(const Candidate& a, const Candidate& b) const noexcept {
    return chunk_higher_priority(a, b);
  }
  static void exhaust(Candidate& c) noexcept {
    c.chunk_weight = -std::numeric_limits<double>::infinity();
  }
};

struct ArrivalOrder {
  bool operator()(const Candidate& a, const Candidate& b) const noexcept {
    return a.packet < b.packet;
  }
  static void exhaust(Candidate& c) noexcept {
    c.packet = std::numeric_limits<PacketIndex>::max();
  }
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
  const std::size_t n = instance.num_packets();
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
  init(options);
}

void Engine::init(EngineOptions options) {
  options_ = options;
  head_kinds_ = scheduler_->heads();
  if (options_.speedup_rounds < 1) throw std::invalid_argument("speedup_rounds must be >= 1");
  if (options_.endpoint_capacity < 1) {
    throw std::invalid_argument("endpoint_capacity must be >= 1");
  }
  if (options_.reconfig_delay < 0) throw std::invalid_argument("reconfig_delay must be >= 0");
  if (options_.reconfig_delay > 0 && options_.endpoint_capacity != 1) {
    throw std::invalid_argument("reconfig_delay requires endpoint_capacity == 1");
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
  // The head list holds at most one entry per edge and listed kind, and so
  // does the buffer a refresh merges it into; the two swap, so both take
  // that bound.
  const std::size_t list_bound = num_edges * (head_kinds_ == HeadKinds::Both ? 2 : 1);
  heads_.reserve(list_bound);
  spare_heads_.reserve(list_bound);
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
  if (options_.audit) auditor_ = make_invariant_auditor();
  if (options_.probe.enabled) {
    probe_store_ = std::make_unique<Probe>(options_.probe);
    probe_ = probe_store_.get();
  }
}

// rdcn-lint: hot
void Engine::retire_packet(const Packet& packet, PacketOutcome& outcome, bool dropped) {
  outcome.dropped = dropped;
  if (auditor_) {
    if (dropped) {
      auditor_->on_drop(*this, packet.id, outcome);
    } else {
      auditor_->on_retire(*this, packet.id, outcome);
    }
  }
  ++(dropped ? dropped_count_ : retired_count_);
  if (probe_) probe_->count(dropped ? Counter::PacketsDropped : Counter::PacketsRetired);
  sink_(RetiredPacket{packet.id, packet.arrival, packet.weight, std::move(outcome)});
}

// rdcn-lint: hot
void Engine::apply_route(const Packet& packet, const RouteDecision& route) {
  if (auditor_) auditor_->on_dispatch(*this, packet, route);
  if (route.use_fixed) {
    const auto delay = topology_->fixed_link_delay(packet.source, packet.destination);
    if (!delay) throw std::logic_error("dispatcher chose a non-existent fixed link");
    // Fixed links are uncapacitated: transmission starts at the decision
    // time (== arrival for the normal dispatch path; later when a queued
    // packet migrates to the fixed layer).
    PacketOutcome outcome;
    outcome.route = route;
    const Time start = std::max(now_, packet.arrival);
    outcome.completion = start + *delay;
    outcome.weighted_latency =
        packet.weight * static_cast<double>(outcome.completion - packet.arrival);
    result_.fixed_cost += outcome.weighted_latency;
    result_.total_cost += outcome.weighted_latency;
    result_.makespan = std::max(result_.makespan, outcome.completion);
    retire_packet(packet, outcome);
    return;
  }
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
  // Fill the node's record in place, resetting every field its last
  // packet set.
  PacketRecord& r = record(enqueue(candidate));
  r.weight = packet.weight;
  r.source = packet.source;
  r.destination = packet.destination;
  r.outcome.route = route;
  r.outcome.chunk_transmit_steps.clear();
  r.outcome.chunk_transmit_steps.reserve(static_cast<std::size_t>(edge.delay));
  r.outcome.completion = 0;
  r.outcome.weighted_latency = 0.0;
  r.outcome.dropped = false;
}

// rdcn-lint: hot
std::int32_t Engine::enqueue(const Candidate& candidate) {
  std::int32_t n = free_node_;
  if (n >= 0) {
    free_node_ = nodes_[static_cast<std::size_t>(n)].next;
  } else {
    n = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();  // rdcn-lint: allow(hot-alloc) -- the pool grows to the high-water backlog once
    if ((static_cast<std::size_t>(n) & (kRecordBlock - 1)) == 0) {
      record_blocks_.push_back(std::make_unique<PacketRecord[]>(kRecordBlock));  // rdcn-lint: allow(hot-alloc) -- one block per kRecordBlock pool nodes
    }
  }
  nodes_[static_cast<std::size_t>(n)].candidate = candidate;
  EdgeQueue& q = queues_[static_cast<std::size_t>(candidate.edge)];
  if (links_priority()) link_priority(q, n);
  if (links_arrival()) link_arrival(q, n);
  ++pending_count_;
  return n;
}

// rdcn-lint: hot
void Engine::link_priority(EdgeQueue& q, std::int32_t n) {
  QueueNode* const nodes = nodes_.data();
  const auto at = [nodes](std::int32_t i) -> QueueNode& {
    return nodes[static_cast<std::size_t>(i)];
  };
  const Candidate& c = at(n).candidate;
  const double w = c.chunk_weight;
  // Find the run of c's chunk weight, or the gap where it would start one:
  // hop in from both ends a whole run per step and stop at whichever side
  // meets it first. `above` is the last node of a run (from the bottom),
  // `below` the first node of one (from the top); runs outside them rank
  // strictly below c, or strictly above it. (Policies that serve priority
  // heads leave light packets queued; arrival-order service leaves a mix.)
  std::int32_t above = q.last;
  std::int32_t below = q.first;
  std::int32_t run_first = -1, run_last = -1;
  while (above >= 0) {
    const double w_above = at(above).candidate.chunk_weight;
    if (w_above >= w) {
      if (w_above == w) {
        run_last = above;
        run_first = at(above).run;
      }
      break;
    }
    const double w_below = at(below).candidate.chunk_weight;
    if (w_below <= w) {
      if (w_below == w) {
        run_first = below;
        run_last = at(below).run;
      } else {
        above = at(below).prev;
      }
      break;
    }
    above = at(at(above).run).prev;
    below = at(at(below).run).next;
  }
  if (run_first >= 0) {
    // Inside the run the order is (arrival, id). Ids are dispatched in
    // arrival order, so a fresh dispatch ranks after every queued packet
    // and lands at the run's end at once; a requeued (older) packet walks
    // in from both ends of its run. `above` ends as the node to insert
    // after.
    above = run_last;
    below = run_first;
    while (above >= 0 && chunk_higher_priority(c, at(above).candidate)) {
      if (!chunk_higher_priority(at(below).candidate, c)) {
        above = at(below).prev;
        break;
      }
      above = at(above).prev;
      below = at(below).next;
    }
  }
  QueueNode& node = at(n);
  if (run_first < 0) {
    node.run = n;  // a run of its own
  } else if (above == run_last) {  // the run's new last node
    node.run = run_first;
    at(run_first).run = n;
  } else if (above == at(run_first).prev) {  // the run's new first node
    node.run = run_last;
    at(run_last).run = n;
  }  // else inside the run, where `run` is stale
  if (above < 0) mark_dirty(c.edge);  // a new priority head
  node.prev = above;
  node.next = above >= 0 ? at(above).next : q.first;
  (above >= 0 ? at(above).next : q.first) = n;
  (node.next >= 0 ? at(node.next).prev : q.last) = n;
}

// rdcn-lint: hot
void Engine::link_arrival(EdgeQueue& q, std::int32_t n) {
  QueueNode& node = nodes_[static_cast<std::size_t>(n)];
  // Walked back from the newest: ids are dispatched in arrival order, so a
  // fresh dispatch appends; a requeued (older) packet walks back to its
  // place.
  std::int32_t older = q.newest;
  while (older >= 0 &&
         nodes_[static_cast<std::size_t>(older)].candidate.packet > node.candidate.packet) {
    older = nodes_[static_cast<std::size_t>(older)].older;
  }
  if (older < 0) mark_dirty(node.candidate.edge);  // a new arrival head
  node.older = older;
  node.newer = older >= 0 ? nodes_[static_cast<std::size_t>(older)].newer : q.oldest;
  (older >= 0 ? nodes_[static_cast<std::size_t>(older)].newer : q.oldest) = n;
  (node.newer >= 0 ? nodes_[static_cast<std::size_t>(node.newer)].older : q.newest) = n;
}

// rdcn-lint: hot
void Engine::dequeue(std::int32_t n) {
  QueueNode& node = nodes_[static_cast<std::size_t>(n)];
  EdgeQueue& q = queues_[static_cast<std::size_t>(node.candidate.edge)];
  if ((q.first == n && links_priority()) || (q.oldest == n && links_arrival())) {
    mark_dirty(node.candidate.edge);
  }
  if (links_priority()) {
    const auto at = [this](std::int32_t i) -> QueueNode& {
      return nodes_[static_cast<std::size_t>(i)];
    };
    // An end of a run of two or more hands its role to its neighbour
    // inside the run, which now faces the run's other end.
    const double w = node.candidate.chunk_weight;
    const bool starts_run = node.prev < 0 || at(node.prev).candidate.chunk_weight != w;
    const bool ends_run = node.next < 0 || at(node.next).candidate.chunk_weight != w;
    if (starts_run && !ends_run) {
      at(node.next).run = node.run;
      at(node.run).run = node.next;
    } else if (ends_run && !starts_run) {
      at(node.prev).run = node.run;
      at(node.run).run = node.prev;
    }
    (node.prev >= 0 ? at(node.prev).next : q.first) = node.next;
    (node.next >= 0 ? at(node.next).prev : q.last) = node.prev;
  }
  if (links_arrival()) {
    (node.older >= 0 ? nodes_[static_cast<std::size_t>(node.older)].newer : q.oldest) =
        node.newer;
    (node.newer >= 0 ? nodes_[static_cast<std::size_t>(node.newer)].older : q.newest) =
        node.older;
  }
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
}

// rdcn-lint: hot
void Engine::refresh_heads() {
  if (dirty_edges_.empty()) return;
  Probe::Span span(probe_, Phase::HeadRefresh);
  if (head_kinds_ == HeadKinds::Arrival) {
    refresh_heads_in(ArrivalOrder{});
  } else {
    refresh_heads_in(PriorityOrder{});
  }
}

// rdcn-lint: hot
template <typename Order>
void Engine::refresh_heads_in(Order before) {
  // The dirty edges' current listed heads, sorted.
  fresh_heads_.clear();
  for (EdgeIndex e : dirty_edges_) {
    const EdgeQueue& q = queues_[static_cast<std::size_t>(e)];
    if (front(q) < 0) continue;  // drained
    if (links_priority()) {
      fresh_heads_.push_back(nodes_[static_cast<std::size_t>(q.first)].candidate);  // rdcn-lint: allow(hot-alloc) -- grows to the high-water head count once
    }
    if (links_arrival() && (q.oldest != q.first || !links_priority())) {
      fresh_heads_.push_back(nodes_[static_cast<std::size_t>(q.oldest)].candidate);  // rdcn-lint: allow(hot-alloc) -- as above
    }
  }
  if (probe_) probe_->count(Counter::HeadsRefreshed, fresh_heads_.size());
  std::sort(fresh_heads_.begin(), fresh_heads_.end(), before);

  // One merge pass into the spare buffer: the old entries minus the dirty
  // edges', and the fresh ones, both in list order. The next fresh entry
  // is held by value, so stores do not force it to be reloaded; once they
  // are used up it is exhausted and ranks after every old entry.
  const EdgeQueue* const queues = queues_.data();
  const std::size_t k = fresh_heads_.size();
  // Room for the old list plus the fresh heads, capped at the capacity
  // init reserved: the list's bound, which the merge never exceeds.
  spare_heads_.resize(std::min(heads_.size() + k, spare_heads_.capacity()));  // rdcn-lint: allow(hot-alloc) -- within the bound reserved in init
  Candidate* const begin = spare_heads_.data();
  Candidate* out = begin;
  Candidate pending;
  Order::exhaust(pending);
  std::size_t next = 0;
  if (k > 0) pending = fresh_heads_.front();
  for (const Candidate& c : heads_) {
    if (queues[static_cast<std::size_t>(c.edge)].dirty) continue;
    while (before(pending, c)) {
      *out++ = pending;
      if (++next < k) {
        pending = fresh_heads_[next];
      } else {
        Order::exhaust(pending);
      }
    }
    *out++ = c;
  }
  for (; next < k; ++next) *out++ = fresh_heads_[next];
  spare_heads_.resize(static_cast<std::size_t>(out - begin));
  heads_.swap(spare_heads_);
  for (EdgeIndex e : dirty_edges_) queues_[static_cast<std::size_t>(e)].dirty = false;
  dirty_edges_.clear();
}

// rdcn-lint: hot
ImpactSplit Engine::impact_split(EdgeIndex e, double threshold) const {
  // Timed at query granularity (rebuild + deferred-event flush + lookup):
  // per-update spans inside add_chunks would cost more than the O(1)
  // counter work they measure. Nests under Inject (or Select).
  Probe::Span span(probe_, Phase::IndexQuery);
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
  if (packet.id != static_cast<PacketIndex>(dispatched_count_)) {
    throw std::logic_error("packets must be dispatched in sequence-id order");
  }
  Probe::Span span(probe_, Phase::Inject);
  ++dispatched_count_;
  if (probe_) probe_->count(Counter::PacketsDispatched);
  if (dead_edges_ != 0 && !has_viable_route(packet.source, packet.destination)) {
    PacketOutcome outcome;  // pair severed; nothing to route over
    retire_packet(packet, outcome, /*dropped=*/true);
  } else {
    apply_route(packet, dispatcher_->dispatch(*this, packet));
  }
}

template <typename Pick>
void Engine::requeue_pending(Pick pick, DeadPolicy policy, MutationStats* stats) {
  requeue_scratch_.clear();
  for (const EdgeQueue& q : queues_) {
    for_each_node(q, [&](std::int32_t n) {
      if (pick(nodes_[static_cast<std::size_t>(n)].candidate)) requeue_scratch_.push_back(n);
    });
  }
  // Ids are injected in arrival order, so id order is (arrival, id) order.
  // A pending packet keeps its node until it leaves, so the indices stay
  // valid while earlier packets are re-dispatched.
  std::sort(requeue_scratch_.begin(), requeue_scratch_.end(),
            [this](std::int32_t a, std::int32_t b) {
              return nodes_[static_cast<std::size_t>(a)].candidate.packet <
                     nodes_[static_cast<std::size_t>(b)].candidate.packet;
            });
  for (std::int32_t n : requeue_scratch_) {
    // Copy the packet out first: re-dispatch may reuse its node.
    const Candidate c = nodes_[static_cast<std::size_t>(n)].candidate;
    const Packet packet = packet_at(n);
    PacketOutcome outcome = std::move(record(n).outcome);
    dequeue(n);
    impact_index_.add_chunks(c.transmitter, c.receiver, c.edge, c.chunk_weight,
                             -c.remaining);
    if (policy == DeadPolicy::Requeue && c.remaining == topology_->edge(c.edge).delay &&
        has_viable_route(packet.source, packet.destination)) {
      if (stats != nullptr) {
        if (auditor_) auditor_->on_requeue(*this, packet.id);
        ++requeued_count_;
        ++stats->packets_requeued;
        if (probe_) probe_->count(Counter::PacketsRequeued);
      }
      apply_route(packet, dispatcher_->dispatch(*this, packet));
    } else {
      retire_packet(packet, outcome, /*dropped=*/true);
      if (stats != nullptr) ++stats->packets_dropped;
    }
  }
}

// rdcn-lint: hot
std::span<const EdgeIndex> Engine::viable_edges(NodeIndex source,
                                                NodeIndex destination) const {
  const std::span<const EdgeIndex> edges = topology_->pair_edges(source, destination);
  if (dead_edges_ == 0) return edges;  // steady state: the topology's own view
  viable_scratch_.clear();
  for (EdgeIndex e : edges) {
    if (edge_alive_[static_cast<std::size_t>(e)]) viable_scratch_.push_back(e);  // rdcn-lint: allow(hot-alloc) -- grows once to the widest pair
  }
  return viable_scratch_;
}

bool Engine::has_viable_route(NodeIndex source, NodeIndex destination) const {
  if (topology_->fixed_link_delay(source, destination)) return true;
  const std::span<const EdgeIndex> edges = topology_->pair_edges(source, destination);
  if (dead_edges_ == 0) return !edges.empty();
  return std::any_of(edges.begin(), edges.end(), [this](EdgeIndex e) {
    return edge_alive_[static_cast<std::size_t>(e)] != 0;
  });
}

MutationStats Engine::apply_mutation(const StageMutation& mutation) {
  if (step_open_) {
    throw std::logic_error("apply_mutation: only valid at a step boundary");
  }
  if (options_.redispatch_queued) {
    throw std::invalid_argument("stage mutations are incompatible with redispatch_queued");
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
    probe_->gauge(Gauge::InFlight, in_flight());
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
  if (auditor_) auditor_->on_selection(*this, heads_, selected);

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

  if (auditor_) auditor_->on_round(*this, heads_, selected);

  // Transmit the selected chunks and account their latency; `remaining`
  // counts down on both the head entry and its queue node.
  std::vector<std::size_t>& finished = finished_scratch_;
  finished.clear();
  Probe::Span service_span(probe_, Phase::Service);
  if (probe_) probe_->count(Counter::ChunksTransmitted, selected.size());
  for (std::size_t index : selected) {
    Candidate& c = heads_[index];
    const std::int32_t n = head_node(c);
    PacketOutcome& outcome = record(n).outcome;
    const Time completion =
        now_ + 1 + edge_meta_[static_cast<std::size_t>(c.edge)].attach_tail;
    outcome.chunk_transmit_steps.push_back(now_);
    const double latency = c.chunk_weight * static_cast<double>(completion - c.arrival);
    outcome.weighted_latency += latency;
    result_.reconfig_cost += latency;
    result_.total_cost += latency;
    --c.remaining;
    impact_index_.add_chunks(c.transmitter, c.receiver, c.edge, c.chunk_weight, -1);
    nodes_[static_cast<std::size_t>(n)].candidate.remaining = c.remaining;
    if (c.remaining == 0) {
      outcome.completion = completion;
      result_.makespan = std::max(result_.makespan, completion);
      finished.push_back(index);  // rdcn-lint: allow(hot-alloc) -- ref to finished_scratch_, reserved in init
    }
  }
  // Retire in head-list order (priority, or arrival for an Arrival list),
  // each packet before its node is freed (its edge's heads refresh next
  // round). Each selected head is on
  // its own edge, so freeing one node leaves the others where head_node
  // finds them.
  std::sort(finished.begin(), finished.end());
  for (std::size_t index : finished) {
    const std::int32_t n = head_node(heads_[index]);
    retire_packet(packet_at(n), record(n).outcome);
    dequeue(n);
  }
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
  if (auditor_) auditor_->on_step_begin(*this, previous);
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
  if (auditor_) auditor_->on_step_end(*this);
  step_open_ = false;
}

RunResult Engine::run(const std::vector<TimedMutation>& schedule) {
  if (instance_ == nullptr) {
    throw std::logic_error("run() requires batch mode; streaming engines are step-driven");
  }
  if (!schedule.empty() && options_.redispatch_queued) {
    throw std::invalid_argument("staged runs are incompatible with redispatch_queued");
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

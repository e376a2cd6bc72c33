#include "sim/engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace rdcn {

namespace {

/// Records RunResult::trace: one StepRecord per step, listing every pending
/// candidate with whether it transmitted and, if not, its blocker -- the
/// transmitting packet that holds its transmitter or receiver. Candidates
/// are sorted by priority, so of two blockers the higher-priority one has
/// the lower candidate index. Relies on the analysis model (one round per
/// step, capacity 1, no reconfiguration delay) that record_trace enforces.
class TraceRecorder final : public EngineObserver {
 public:
  TraceRecorder(std::vector<StepRecord>& trace, const Topology& topology)
      : trace_(&trace),
        owner_t_(static_cast<std::size_t>(topology.num_transmitters()), kNone),
        owner_r_(static_cast<std::size_t>(topology.num_receivers()), kNone) {}

  void on_step_begin(const Engine& engine, Time /*previous_now*/) override {
    trace_->push_back(StepRecord{engine.now(), {}, 0});
  }

  void on_round(const Engine& /*engine*/, const std::vector<Candidate>& candidates,
                const std::vector<std::size_t>& transmitted) override {
    StepRecord& step = trace_->back();
    step.matching_size = transmitted.size();
    for (std::size_t index : transmitted) {
      owner_t_[static_cast<std::size_t>(candidates[index].transmitter)] = index;
      owner_r_[static_cast<std::size_t>(candidates[index].receiver)] = index;
    }
    step.packets.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const Candidate& c = candidates[i];
      const std::size_t owner = std::min(owner_t_[static_cast<std::size_t>(c.transmitter)],
                                         owner_r_[static_cast<std::size_t>(c.receiver)]);
      StepPacketRecord record;
      record.packet = c.packet;
      record.transmitted = owner == i;
      if (owner != i && owner != kNone) record.blocker = candidates[owner].packet;
      step.packets.push_back(record);
    }
    for (std::size_t index : transmitted) {
      owner_t_[static_cast<std::size_t>(candidates[index].transmitter)] = kNone;
      owner_r_[static_cast<std::size_t>(candidates[index].receiver)] = kNone;
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
    ps.chunk_weight = packet.weight / static_cast<double>(edge.delay);
    impact_index_.add_chunks(edge.transmitter, edge.receiver, route.edge, ps.chunk_weight,
                             edge.delay);

    Candidate candidate;
    candidate.packet = packet.id;
    candidate.edge = route.edge;
    candidate.transmitter = edge.transmitter;
    candidate.receiver = edge.receiver;
    candidate.chunk_weight = ps.chunk_weight;
    candidate.arrival = packet.arrival;
    candidate.remaining = edge.delay;
    staged_.push_back(candidate);  // rdcn-lint: allow(hot-alloc) -- settles at high-water capacity (see merge)

    outcome.chunk_transmit_steps.reserve(static_cast<std::size_t>(edge.delay));
  }
}

// rdcn-lint: hot
void Engine::merge_staged_candidates() {
  if (staged_.empty()) return;
  Probe::Span span(probe_, Phase::MergeCompact);
  if (probe_) probe_->count(Counter::CandidatesMerged, staged_.size());
  std::sort(staged_.begin(), staged_.end(), chunk_higher_priority);
  if (candidates_.empty()) {
    candidates_.swap(staged_);
  } else {
    // One linear pass into a reusable buffer: both vectors settle at the
    // high-water capacity and the merge stops allocating.
    merge_scratch_.clear();
    merge_scratch_.reserve(candidates_.size() + staged_.size());
    std::merge(candidates_.begin(), candidates_.end(), staged_.begin(), staged_.end(),
               std::back_inserter(merge_scratch_), chunk_higher_priority);
    candidates_.swap(merge_scratch_);
    staged_.clear();
  }
}

// rdcn-lint: hot
ImpactSplit Engine::impact_split(EdgeIndex e, double threshold) const {
  // Timed at query granularity (rebuild + deferred-event flush + lookup):
  // per-update spans inside add_chunks would cost more than the O(1)
  // counter work they measure. Nests under Dispatch (or Select).
  Probe::Span span(probe_, Phase::IndexMaintenance);
  if (probe_) probe_->count(Counter::ImpactQueries);
  if (!impact_index_.weight_ready()) impact_index_.rebuild(candidates_, staged_);
  return impact_index_.edge_split(e, threshold);
}

// rdcn-lint: hot
const ActiveEndpoints& Engine::active_endpoints(
    const std::vector<Candidate>& candidates) const {
  // Round-stamped cache for the engine's own pending list; a foreign list
  // (benches driving select() directly) rebuilds every call. Rank entries
  // of endpoints absent from `candidates` are left stale on purpose --
  // consumers may only look up endpoints of the candidates themselves.
  const bool own = &candidates == &candidates_;
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
  // The priority key (chunk_weight, arrival, id) is immutable, so the
  // candidate's slot is found by binary search instead of a full scan.
  Candidate key;
  key.packet = packet;
  key.chunk_weight = state_[slot(packet)].chunk_weight;
  key.arrival = state_[slot(packet)].arrival;
  const auto it =
      std::lower_bound(candidates_.begin(), candidates_.end(), key, chunk_higher_priority);
  if (it == candidates_.end() || it->packet != packet) {
    throw std::logic_error("unlist_pending: packet is not pending");
  }
  const Candidate c = *it;
  candidates_.erase(it);
  impact_index_.add_chunks(c.transmitter, c.receiver, c.edge, c.chunk_weight, -c.remaining);
  return c.remaining;
}

template <typename Pick>
void Engine::requeue_pending(Pick pick, DeadPolicy policy, MutationStats* stats) {
  merge_staged_candidates();  // unlist_pending needs the merged list
  requeue_scratch_.clear();
  for (const Candidate& c : candidates_) {
    if (pick(c)) requeue_scratch_.push_back(c.packet);
  }
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
  merge_staged_candidates();
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

  merge_staged_candidates();  // the index crosscheck rebuilds from the merged list
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
  // Rebuild the index from the candidate list alone and require bitwise
  // agreement: integer loads always, treap splits when the live index has
  // its weight structures up (canonical hash-priority shape makes the
  // incremental and rebuilt treaps structurally identical). Mutations are
  // cold, so the O(n log n) rebuild is free at steady state.
  ImpactIndex fresh;
  fresh.attach(*topology_);
  for (const Candidate& c : candidates_) {
    fresh.add_chunks(c.transmitter, c.receiver, c.edge, c.chunk_weight, c.remaining);
  }
  const auto num_edges = static_cast<std::size_t>(topology_->num_edges());
  for (std::size_t i = 0; i < num_edges; ++i) {
    const auto e = static_cast<EdgeIndex>(i);
    if (impact_index_.edge_load(e) != fresh.edge_load(e)) {
      throw std::logic_error(
          "apply_mutation: impact index edge load diverged from rebuild");
    }
  }
  if (impact_index_.weight_ready()) {
    fresh.rebuild(candidates_, staged_);
    for (const Candidate& c : candidates_) {
      const ImpactSplit live = impact_index_.edge_split(c.edge, c.chunk_weight);
      const ImpactSplit ref = fresh.edge_split(c.edge, c.chunk_weight);
      if (live.heavier != ref.heavier || live.lighter_weight != ref.lighter_weight) {
        throw std::logic_error(
            "apply_mutation: impact index weight split diverged from rebuild");
      }
    }
  }
}

// rdcn-lint: hot
std::size_t Engine::schedule_round() {
  merge_staged_candidates();
  if (candidates_.empty()) return 0;

  if (probe_) {
    probe_->count(Counter::Rounds);
    probe_->gauge(Gauge::PendingCandidates, candidates_.size());
    probe_->gauge(Gauge::InFlight, in_flight_);
    probe_->gauge(Gauge::TreapNodes, impact_index_.live_weight_nodes());
    probe_->set(Counter::IndexRebuilds, impact_index_.rebuilds());
  }

  ++select_serial_;  // invalidates the active-endpoint map of the last round
  selection_.clear();
  {
    Probe::Span span(probe_, Phase::Select);
    scheduler_->select(*this, now_, candidates_, selection_);
  }
  const std::vector<std::size_t>& selected = selection_.indices();
  if (probe_ && active_serial_ == select_serial_) {
    // The policy built the active-endpoint map this round; sample it.
    probe_->gauge(Gauge::ActiveTransmitters, active_.transmitters.size());
    probe_->gauge(Gauge::ActiveReceivers, active_.receivers.size());
  }

  // The auditor validates first (independently), so a contract violation
  // under audit surfaces as AuditFailure, not as the engine's logic_error.
  for (const auto& observer : observers_) observer->on_selection(*this, candidates_, selected);

  // Validate the selection is a (b-)matching: per-endpoint load within
  // capacity, each edge used at most once. Scratch arrays are stamped with
  // the round serial so nothing is re-zeroed per round.
  ++round_serial_;
  const std::uint64_t round = round_serial_;
  {
    Probe::Span validate_span(probe_, Phase::Validate);
    chosen_round_.resize(std::max(chosen_round_.size(), candidates_.size()), 0);
    for (std::size_t index : selected) {
      if (index >= candidates_.size() || chosen_round_[index] == round) {
        throw std::logic_error("scheduler returned an invalid candidate index");
      }
      chosen_round_[index] = round;
      const Candidate& c = candidates_[index];
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
        const Candidate& c = candidates_[index];
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

  for (const auto& observer : observers_) observer->on_round(*this, candidates_, selected);

  // Transmit the selected chunks and account their latency; `remaining`
  // counts down in place on the candidate entry.
  std::vector<std::size_t>& finished_slots = finished_scratch_;
  finished_slots.clear();
  Probe::Span service_span(probe_, Phase::Service);
  if (probe_) probe_->count(Counter::ChunksTransmitted, selected.size());
  for (std::size_t index : selected) {
    Candidate& c = candidates_[index];
    auto& outcome = outcomes_[slot(c.packet)];
    const Time completion =
        now_ + 1 + edge_meta_[static_cast<std::size_t>(c.edge)].attach_tail;
    outcome.chunk_transmit_steps.push_back(now_);
    const double latency = c.chunk_weight * static_cast<double>(completion - c.arrival);
    outcome.weighted_latency += latency;
    result_.reconfig_cost += latency;
    result_.total_cost += latency;
    --c.remaining;
    impact_index_.add_chunks(c.transmitter, c.receiver, c.edge, c.chunk_weight, -1);
    if (c.remaining == 0) {
      outcome.completion = completion;
      result_.makespan = std::max(result_.makespan, completion);
      finished_slots.push_back(index);  // rdcn-lint: allow(hot-alloc) -- ref to finished_scratch_, reserved in init
    }
  }

  // Drop completed packets: retirement out of the per-packet window, then
  // one compaction pass over the candidate tail.
  if (!finished_slots.empty()) {
    std::sort(finished_slots.begin(), finished_slots.end());
    for (std::size_t index : finished_slots) retire_packet(candidates_[index].packet);
    // Compaction is a MergeCompact child of the surrounding Service span:
    // self-time accounting keeps the two phases disjoint.
    Probe::Span compact_span(probe_, Phase::MergeCompact);
    std::size_t write = finished_slots.front();
    std::size_t next_finished = 0;
    for (std::size_t read = write; read < candidates_.size(); ++read) {
      if (next_finished < finished_slots.size() && read == finished_slots[next_finished]) {
        ++next_finished;
        continue;
      }
      candidates_[write++] = candidates_[read];
    }
    candidates_.resize(write);
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
  if (candidates_.empty() && staged_.empty() && next_arrival != nullptr &&
      *next_arrival > now_ + 1) {
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
  const auto& packets = instance_->packets();
  std::size_t next = 0;
  std::size_t next_stage = 0;
  while (true) {
    // A mutation at time T governs every step with now() >= T, so it is
    // applied once the next step's clock (now()+1, barring idle jumps --
    // which the clamp below caps at T-1) reaches it.
    while (next_stage < schedule.size() && schedule[next_stage].at <= now_ + 1) {
      apply_mutation(schedule[next_stage].mutation);
      ++next_stage;
    }
    if (next == packets.size() && !busy()) break;
    const Time* upcoming = next < packets.size() ? &packets[next].arrival : nullptr;
    Time stage_bound = 0;
    if (next_stage < schedule.size()) {
      // Clamp the idle jump to the step before the stage edge: the loop
      // head then applies the mutation and step T runs post-mutation.
      stage_bound = schedule[next_stage].at - 1;
      if (upcoming == nullptr || stage_bound < *upcoming) upcoming = &stage_bound;
    }
    begin_step(upcoming);
    while (next < packets.size() && packets[next].arrival == now_) inject(packets[next++]);
    finish_step();
  }
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

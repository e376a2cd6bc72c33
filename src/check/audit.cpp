#include "check/audit.hpp"

#include <cmath>
#include <memory>
#include <string>

namespace rdcn {

std::unique_ptr<EngineObserver> make_invariant_auditor() {
  return std::make_unique<check::InvariantAuditor>();
}

}  // namespace rdcn

namespace rdcn::check {

namespace {

/// Latency comparisons: the auditor replays the engine's accumulation with
/// the identical values in the identical order, so the results should be
/// bit-equal; the tolerance only shields against compiler reassociation.
bool close(double a, double b) {
  return std::abs(a - b) <= 1e-9 * (1.0 + std::max(std::abs(a), std::abs(b)));
}

}  // namespace

void InvariantAuditor::fail(const Engine& engine, const std::string& what) const {
  throw AuditFailure("[audit] step " + std::to_string(engine.now()) + ": " + what);
}

InvariantAuditor::Ledger& InvariantAuditor::entry(const Engine& engine, PacketIndex packet,
                                                  const char* context) {
  const auto it = ledger_.find(packet);
  if (it == ledger_.end()) {
    fail(engine, std::string(context) + ": packet " + std::to_string(packet) +
                     " is not in flight");
  }
  return it->second;
}

void InvariantAuditor::on_step_begin(const Engine& engine, Time previous_now) {
  if (clock_started_ && engine.now() <= previous_now) {
    fail(engine, "clock did not advance (previous step was " +
                     std::to_string(previous_now) + ")");
  }
  clock_started_ = true;
}

void InvariantAuditor::on_dispatch(const Engine& engine, const Packet& packet,
                                   const RouteDecision& route) {
  const Topology& topology = engine.topology();
  const auto existing = ledger_.find(packet.id);
  if (existing != ledger_.end()) {
    // Only the restricted-migration ablation and a stage mutation's
    // announced requeue may route a packet twice, and only while none of
    // its chunks has transmitted.
    if (!engine.options().redispatch_queued && !existing->second.requeue_pending) {
      fail(engine, "packet " + std::to_string(packet.id) + " dispatched twice");
    }
    if (existing->second.use_fixed || existing->second.transmitted != 0) {
      fail(engine, "packet " + std::to_string(packet.id) +
                       " re-dispatched after transmitting chunks");
    }
  } else {
    if (packet.id != next_id_) {
      fail(engine, "dispatch out of sequence: got packet " + std::to_string(packet.id) +
                       ", expected " + std::to_string(next_id_));
    }
    ++next_id_;
    ++dispatched_;
  }
  if (packet.arrival > engine.now()) {
    fail(engine, "packet " + std::to_string(packet.id) + " dispatched before its arrival");
  }

  Ledger ledger;
  ledger.arrival = packet.arrival;
  ledger.weight = packet.weight;
  if (route.use_fixed) {
    const auto delay = topology.fixed_link_delay(packet.source, packet.destination);
    if (!delay) {
      fail(engine, "packet " + std::to_string(packet.id) +
                       " routed to a fixed link that does not exist");
    }
    ledger.use_fixed = true;
    ledger.expected_completion = std::max(engine.now(), packet.arrival) + *delay;
    ledger.expected_latency =
        packet.weight * static_cast<double>(ledger.expected_completion - packet.arrival);
  } else {
    if (route.edge < 0 || route.edge >= topology.num_edges()) {
      fail(engine, "packet " + std::to_string(packet.id) + " routed to invalid edge " +
                       std::to_string(route.edge));
    }
    const ReconfigEdge& edge = topology.edge(route.edge);
    if (topology.source_of(edge.transmitter) != packet.source ||
        topology.destination_of(edge.receiver) != packet.destination) {
      fail(engine, "packet " + std::to_string(packet.id) + " routed to edge " +
                       std::to_string(route.edge) + " outside its candidate set E_p");
    }
    ledger.edge = route.edge;
    ledger.total_chunks = edge.delay;
    ledger.chunk_weight = packet.weight / static_cast<double>(edge.delay);
  }
  ledger_[packet.id] = std::move(ledger);
}

void InvariantAuditor::on_selection(const Engine& engine,
                                    const std::vector<Candidate>& candidates,
                                    const std::vector<std::size_t>& selected) {
  const Topology& topology = engine.topology();
  ++rounds_;
  // Two distinct stamps per round, so the head-list integrity pass and the
  // selection-distinctness pass below share picked_round_ without clearing.
  const std::uint64_t round = 2 * rounds_;
  const std::uint64_t pick_round = 2 * rounds_ + 1;
  load_t_round_.resize(static_cast<std::size_t>(topology.num_transmitters()), 0);
  load_r_round_.resize(static_cast<std::size_t>(topology.num_receivers()), 0);
  edge_round_.resize(static_cast<std::size_t>(topology.num_edges()), 0);
  load_t_.resize(load_t_round_.size(), 0);
  load_r_.resize(load_r_round_.size(), 0);

  // Head-list integrity: exactly the per-edge heads of the ledger's
  // pending packets that the engine's declared HeadKinds lists -- each
  // edge's highest-priority packet, its earliest-arriving one, or both
  // (one entry when they coincide) -- sorted by chunk priority, or by
  // packet id for an Arrival list, with every entry consistent with the
  // ledger. (picked_round_ doubles as the per-round "seen" stamp.)
  const HeadKinds kinds = engine.head_kinds();
  const bool list_priority = kinds != HeadKinds::Arrival;
  const bool list_arrival = kinds != HeadKinds::Priority;
  edge_heads_.resize(edge_round_.size());
  const auto listed = [&](const EdgeHeads& heads) -> std::size_t {
    return list_priority && list_arrival && heads.priority != heads.earliest ? 2 : 1;
  };
  std::size_t expected = 0;
  for (const auto& [id, ledger] : ledger_) {
    if (ledger.use_fixed || ledger.transmitted >= ledger.total_chunks) continue;
    EdgeHeads& heads = edge_heads_[static_cast<std::size_t>(ledger.edge)];
    if (heads.round != round) {
      heads = EdgeHeads{round, id, ledger.chunk_weight, ledger.arrival, id, ledger.arrival};
      ++expected;
      continue;
    }
    expected -= listed(heads);
    const bool higher =
        ledger.chunk_weight != heads.priority_weight
            ? ledger.chunk_weight > heads.priority_weight
            : (ledger.arrival != heads.priority_arrival ? ledger.arrival < heads.priority_arrival
                                                        : id < heads.priority);
    if (higher) {
      heads.priority = id;
      heads.priority_weight = ledger.chunk_weight;
      heads.priority_arrival = ledger.arrival;
    }
    const bool earlier = ledger.arrival != heads.earliest_arrival
                             ? ledger.arrival < heads.earliest_arrival
                             : id < heads.earliest;
    if (earlier) {
      heads.earliest = id;
      heads.earliest_arrival = ledger.arrival;
    }
    expected += listed(heads);
  }
  if (candidates.size() != expected) {
    fail(engine, "head list has " + std::to_string(candidates.size()) + " entries but " +
                     std::to_string(expected) + " per-edge heads are pending");
  }
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& c = candidates[i];
    if (i + 1 < candidates.size() &&
        (list_priority ? chunk_higher_priority(candidates[i + 1], c)
                       : candidates[i + 1].packet < c.packet)) {
      fail(engine, std::string("head list is not sorted by ") +
                       (list_priority ? "chunk priority" : "packet id") + " at index " +
                       std::to_string(i));
    }
    auto& seen = picked_round_[c.packet];
    if (seen == round) {
      fail(engine, "packet " + std::to_string(c.packet) + " appears twice in the "
                   "head list");
    }
    seen = round;
    const Ledger& ledger = entry(engine, c.packet, "head list");
    if (ledger.use_fixed || c.edge != ledger.edge ||
        c.remaining != ledger.total_chunks - ledger.transmitted ||
        c.arrival != ledger.arrival || c.chunk_weight != ledger.chunk_weight) {
      fail(engine, "candidate for packet " + std::to_string(c.packet) +
                       " disagrees with the dispatch-time ledger");
    }
    const ReconfigEdge& edge = topology.edge(c.edge);
    if (edge.transmitter != c.transmitter || edge.receiver != c.receiver) {
      fail(engine, "candidate for packet " + std::to_string(c.packet) +
                       " carries endpoints that are not edge " + std::to_string(c.edge));
    }
    const EdgeHeads& heads = edge_heads_[static_cast<std::size_t>(c.edge)];
    if (heads.round != round || !((list_priority && c.packet == heads.priority) ||
                                  (list_arrival && c.packet == heads.earliest))) {
      fail(engine, "packet " + std::to_string(c.packet) + " is in the head list but is "
                   "not a listed head of edge " + std::to_string(c.edge));
    }
  }

  // Selection feasibility: a (b-)matching over distinct pending chunks.
  const int capacity = engine.options().endpoint_capacity;
  for (const std::size_t index : selected) {
    if (index >= candidates.size()) {
      fail(engine, "scheduler selected out-of-range candidate index " +
                       std::to_string(index));
    }
    const Candidate& c = candidates[index];
    auto& mark = picked_round_[c.packet];
    if (mark == pick_round) {
      fail(engine, "scheduler selected packet " + std::to_string(c.packet) + " twice");
    }
    mark = pick_round;
    const auto e = static_cast<std::size_t>(c.edge);
    const auto t = static_cast<std::size_t>(c.transmitter);
    const auto r = static_cast<std::size_t>(c.receiver);
    if (edge_round_[e] == round) {
      fail(engine, "selection uses edge " + std::to_string(c.edge) + " twice");
    }
    edge_round_[e] = round;
    if (load_t_round_[t] != round) {
      load_t_round_[t] = round;
      load_t_[t] = 0;
    }
    if (load_r_round_[r] != round) {
      load_r_round_[r] = round;
      load_r_[r] = 0;
    }
    if (++load_t_[t] > capacity) {
      fail(engine, "selection loads transmitter " + std::to_string(c.transmitter) +
                       " beyond capacity " + std::to_string(capacity));
    }
    if (++load_r_[r] > capacity) {
      fail(engine, "selection loads receiver " + std::to_string(c.receiver) +
                       " beyond capacity " + std::to_string(capacity));
    }
    if (c.remaining <= 0) {
      fail(engine, "selection transmits packet " + std::to_string(c.packet) +
                       " with no chunks remaining");
    }
  }
}

void InvariantAuditor::on_round(const Engine& engine, const std::vector<Candidate>& candidates,
                                const std::vector<std::size_t>& transmitted) {
  const Topology& topology = engine.topology();
  for (const std::size_t index : transmitted) {
    const Candidate& c = candidates[index];
    Ledger& ledger = entry(engine, c.packet, "transmit");
    if (ledger.transmitted >= ledger.total_chunks) {
      fail(engine, "packet " + std::to_string(c.packet) + " transmitted more chunks than "
                   "its route delay");
    }
    if (engine.now() < ledger.arrival) {
      fail(engine, "packet " + std::to_string(c.packet) + " transmitted before arrival");
    }
    ++ledger.transmitted;
    ledger.transmit_steps.push_back(engine.now());
    const ReconfigEdge& edge = topology.edge(ledger.edge);
    const Time completion = engine.now() + 1 +
                            topology.transmitter_attach_delay(edge.transmitter) +
                            topology.receiver_attach_delay(edge.receiver);
    ledger.expected_latency +=
        ledger.chunk_weight * static_cast<double>(completion - ledger.arrival);
    if (ledger.transmitted == ledger.total_chunks) ledger.expected_completion = completion;
  }
}

void InvariantAuditor::on_retire(const Engine& engine, PacketIndex packet,
                                 const PacketOutcome& outcome) {
  const Ledger& ledger = entry(engine, packet, "retire");
  const std::string who = "packet " + std::to_string(packet);
  if (ledger.use_fixed) {
    if (!outcome.route.use_fixed || !outcome.chunk_transmit_steps.empty()) {
      fail(engine, who + " retired with a route/chunk record inconsistent with its "
                   "fixed dispatch");
    }
  } else {
    if (outcome.route.use_fixed || outcome.route.edge != ledger.edge) {
      fail(engine, who + " retired with a route inconsistent with its dispatch");
    }
    if (ledger.transmitted != ledger.total_chunks) {
      fail(engine, who + " retired with " + std::to_string(ledger.transmitted) + " of " +
                       std::to_string(ledger.total_chunks) + " chunks transmitted");
    }
    if (outcome.chunk_transmit_steps != ledger.transmit_steps) {
      fail(engine, who + " retired with a chunk transmit history that disagrees with "
                   "the observed rounds");
    }
  }
  if (outcome.completion != ledger.expected_completion) {
    fail(engine, who + " completion " + std::to_string(outcome.completion) +
                     " != derived " + std::to_string(ledger.expected_completion));
  }
  if (outcome.completion <= ledger.arrival) {
    fail(engine, who + " completed no later than it arrived");
  }
  if (!close(outcome.weighted_latency, ledger.expected_latency)) {
    fail(engine, who + " weighted latency " + std::to_string(outcome.weighted_latency) +
                     " != derived " + std::to_string(ledger.expected_latency));
  }
  ledger_.erase(packet);
  picked_round_.erase(packet);  // keep the stamp map O(in-flight) too
  ++retired_;
}

void InvariantAuditor::on_drop(const Engine& engine, PacketIndex packet,
                               const PacketOutcome& outcome) {
  const std::string who = "packet " + std::to_string(packet);
  if (!outcome.dropped) fail(engine, who + " dropped without the dropped flag");
  if (outcome.completion != 0) {
    fail(engine, who + " dropped but carries a completion time");
  }
  const auto it = ledger_.find(packet);
  if (it == ledger_.end()) {
    // Arrival-time drop: the pair had no surviving route, so the packet
    // never reached the dispatcher. It still consumes the sequence id and
    // counts as dispatched (the engine creates its window slot).
    if (packet != next_id_) {
      fail(engine, "arrival drop out of sequence: got " + std::to_string(packet) +
                       ", expected " + std::to_string(next_id_));
    }
    ++next_id_;
    ++dispatched_;
    if (!outcome.chunk_transmit_steps.empty() || outcome.weighted_latency != 0.0) {
      fail(engine, who + " dropped at arrival but carries transmit history");
    }
  } else {
    const Ledger& ledger = it->second;
    if (ledger.use_fixed) {
      fail(engine, who + " dropped from the fixed layer (fixed links never die)");
    }
    if (outcome.route.use_fixed || outcome.route.edge != ledger.edge) {
      fail(engine, who + " dropped with a route inconsistent with its dispatch");
    }
    if (ledger.transmitted >= ledger.total_chunks) {
      fail(engine, who + " dropped after transmitting every chunk");
    }
    if (outcome.chunk_transmit_steps != ledger.transmit_steps) {
      fail(engine, who + " dropped with a chunk transmit history that disagrees with "
                   "the observed rounds");
    }
    if (!close(outcome.weighted_latency, ledger.expected_latency)) {
      fail(engine, who + " dropped with weighted latency " +
                       std::to_string(outcome.weighted_latency) + " != derived " +
                       std::to_string(ledger.expected_latency));
    }
    ledger_.erase(it);
    picked_round_.erase(packet);
  }
  ++dropped_;
}

void InvariantAuditor::on_requeue(const Engine& engine, PacketIndex packet) {
  Ledger& ledger = entry(engine, packet, "requeue");
  if (ledger.use_fixed) {
    fail(engine, "packet " + std::to_string(packet) + " requeued off the fixed layer");
  }
  if (ledger.transmitted != 0) {
    fail(engine, "packet " + std::to_string(packet) +
                     " requeued after transmitting chunks");
  }
  ledger.requeue_pending = true;
}

void InvariantAuditor::on_step_end(const Engine& engine) {
  // The engine's edge queues must hold exactly the ledger's pending
  // packets -- catching packets silently dropped without retirement (the
  // selection hook above only fires when something is pending).
  std::size_t pending = 0;
  for (const auto& [id, ledger] : ledger_) {
    (void)id;
    if (!ledger.use_fixed && ledger.transmitted < ledger.total_chunks) ++pending;
  }
  if (engine.pending_count() != pending) {
    fail(engine, "edge queues hold " + std::to_string(engine.pending_count()) +
                     " packets but " + std::to_string(pending) + " are pending");
  }
  if (dispatched_ != retired_ + dropped_ + ledger_.size()) {
    fail(engine, "auditor conservation broken: dispatched " + std::to_string(dispatched_) +
                     " != retired " + std::to_string(retired_) + " + dropped " +
                     std::to_string(dropped_) + " + in flight " +
                     std::to_string(ledger_.size()));
  }
  if (engine.packets_dispatched() != dispatched_ || engine.packets_retired() != retired_ ||
      engine.packets_dropped() != dropped_ || engine.in_flight() != ledger_.size()) {
    fail(engine, "engine counters disagree with the audit ledger (dispatched " +
                     std::to_string(engine.packets_dispatched()) + "/" +
                     std::to_string(dispatched_) + ", retired " +
                     std::to_string(engine.packets_retired()) + "/" +
                     std::to_string(retired_) + ", in flight " +
                     std::to_string(engine.in_flight()) + "/" +
                     std::to_string(ledger_.size()) + ")");
  }
}

}  // namespace rdcn::check

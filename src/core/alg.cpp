#include "core/alg.hpp"

#include <algorithm>

#include "core/impact.hpp"

namespace rdcn {

RouteDecision ImpactDispatcher::dispatch(const Engine& engine, const Packet& packet) {
  return impact_route(engine, packet,
                      [&](EdgeIndex e) { return impact_of(engine, packet, e).delta; });
}

void StableMatchingScheduler::select(const Engine& engine, Time /*now*/,
                                     const std::vector<Candidate>& candidates,
                                     Selection& out) {
  // The engine hands the per-edge priority heads in the paper's priority
  // order (see SchedulePolicy::select), so the greedy stable matching of
  // Section III-C is a single scan: accept whenever both endpoints are
  // free. An edge's other packets rank below its priority head and share
  // both its endpoints, so scanning the full backlog -- or a Both list,
  // which adds each edge's arrival head -- would accept the same set.
  const auto num_t = static_cast<std::size_t>(engine.topology().num_transmitters());
  const auto num_r = static_cast<std::size_t>(engine.topology().num_receivers());

  if (engine.options().endpoint_capacity == 1) {
    transmitter_taken_.resize(num_t, 0);
    receiver_taken_.resize(num_r, 0);
    ++serial_;
    const std::size_t limit = std::min(num_t, num_r);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const Candidate& c = candidates[i];
      auto& t_taken = transmitter_taken_[static_cast<std::size_t>(c.transmitter)];
      auto& r_taken = receiver_taken_[static_cast<std::size_t>(c.receiver)];
      if (t_taken == serial_ || r_taken == serial_) continue;
      t_taken = serial_;
      r_taken = serial_;
      out.push(i);
      if (out.size() == limit) break;  // every further chunk is blocked
    }
    return;
  }

  // b-matching extension: endpoints carry up to b edges per step, each
  // physical edge at most one chunk: greedy accept in priority order under
  // endpoint capacities and edge exclusivity, run in place on stamped
  // load counters so this path is allocation-free at steady state too.
  // (A packet behind its edge's priority head finds that edge used or an
  // endpoint already full, so the head list loses nothing here either.)
  const std::int32_t capacity = engine.options().endpoint_capacity;
  t_load_stamp_.resize(num_t, 0);
  r_load_stamp_.resize(num_r, 0);
  edge_used_stamp_.resize(static_cast<std::size_t>(engine.topology().num_edges()), 0);
  t_load_.resize(num_t, 0);
  r_load_.resize(num_r, 0);
  ++serial_;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& c = candidates[i];
    const auto t = static_cast<std::size_t>(c.transmitter);
    const auto r = static_cast<std::size_t>(c.receiver);
    const auto e = static_cast<std::size_t>(c.edge);
    if (t_load_stamp_[t] != serial_) {
      t_load_stamp_[t] = serial_;
      t_load_[t] = 0;
    }
    if (r_load_stamp_[r] != serial_) {
      r_load_stamp_[r] = serial_;
      r_load_[r] = 0;
    }
    if (t_load_[t] >= capacity || r_load_[r] >= capacity) continue;
    if (edge_used_stamp_[e] == serial_) continue;
    ++t_load_[t];
    ++r_load_[r];
    edge_used_stamp_[e] = serial_;
    out.push(i);
  }
}

RunResult run_alg(const Instance& instance, EngineOptions options) {
  ImpactDispatcher dispatcher;
  StableMatchingScheduler scheduler;
  return simulate(instance, dispatcher, scheduler, options);
}

}  // namespace rdcn

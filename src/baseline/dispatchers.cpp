#include "baseline/dispatchers.hpp"

#include <limits>
#include <stdexcept>

namespace rdcn {

RouteDecision RandomDispatcher::dispatch(const Engine& engine, const Packet& packet) {
  const auto edges = engine.viable_edges(packet.source, packet.destination);
  if (edges.empty()) return fixed_route(engine, packet);
  return edge_route(edges[rng_.next_below(edges.size())]);
}

RouteDecision RoundRobinDispatcher::dispatch(const Engine& engine, const Packet& packet) {
  const auto edges = engine.viable_edges(packet.source, packet.destination);
  if (edges.empty()) return fixed_route(engine, packet);
  std::size_t& next = cursor_[{packet.source, packet.destination}];
  const EdgeIndex edge = edges[next % edges.size()];
  ++next;
  return edge_route(edge);
}

RouteDecision JsqDispatcher::dispatch(const Engine& engine, const Packet& packet) {
  // The load signal (pending chunks parked at the edge's endpoints, each
  // packet counted once) comes from the impact index's integer counters:
  // O(1) per edge, bit-identical to the old two-queue scan.
  const ImpactIndex& index = engine.impact_index();
  return jsq_route(engine, packet, [&index](EdgeIndex e) { return index.edge_load(e); });
}

RouteDecision MinDelayDispatcher::dispatch(const Engine& engine, const Packet& packet) {
  const Topology& topology = engine.topology();
  const auto edges = engine.viable_edges(packet.source, packet.destination);
  if (edges.empty()) return fixed_route(engine, packet);
  EdgeIndex best = edges.front();
  Delay best_delay = std::numeric_limits<Delay>::max();
  for (EdgeIndex e : edges) {
    const Delay delay = topology.total_edge_delay(e);
    if (delay < best_delay) {
      best_delay = delay;
      best = e;
    }
  }
  // Prefer the fixed link only when it strictly beats the best edge's
  // uncontended latency (mirrors the paper's comparison shape).
  if (auto direct = topology.fixed_link_delay(packet.source, packet.destination)) {
    if (*direct < best_delay) return fixed_route(engine, packet);
  }
  return edge_route(best);
}

RouteDecision DirectOnlyDispatcher::dispatch(const Engine& engine, const Packet& packet) {
  const Topology& topology = engine.topology();
  if (topology.fixed_link_delay(packet.source, packet.destination)) {
    return fixed_route(engine, packet);
  }
  const auto edges = engine.viable_edges(packet.source, packet.destination);
  if (edges.empty()) throw std::logic_error("packet has no route");
  return edge_route(edges.front());
}

}  // namespace rdcn

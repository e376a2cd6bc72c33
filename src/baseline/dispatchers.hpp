#pragma once

// Dispatch-policy baselines: alternatives to the paper's impact-minimizing
// dispatcher, used by the EXP-B2 ablation. Each commits an arriving packet
// to a route using progressively less information:
//
//   RandomDispatcher     -- uniform random candidate edge;
//   RoundRobinDispatcher -- cycles through E_p per (source, destination);
//   JsqDispatcher        -- joins the least-loaded edge (fewest pending
//                           chunks at its transmitter + receiver, read
//                           from the engine's impact-index counters);
//   MinDelayDispatcher   -- ignores queues, picks the smallest d^(e);
//   DirectOnlyDispatcher -- always the fixed link when one exists.
//
// All of them fall back sensibly when E_p is empty or no fixed link
// exists, and set alpha = 0 (they give no dual certificate). Each reads
// E_p as the engine's viable_edges view, so the per-packet dispatch path
// performs no heap allocations at steady state.

#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <stdexcept>

#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace rdcn {

/// The fixed link as the route (alpha 0); throws std::logic_error when the
/// pair has none.
inline RouteDecision fixed_route(const Engine& engine, const Packet& packet) {
  if (!engine.topology().fixed_link_delay(packet.source, packet.destination)) {
    throw std::logic_error("packet has no route");
  }
  RouteDecision decision;
  decision.use_fixed = true;
  return decision;
}

/// Edge `edge` as the route (alpha 0).
inline RouteDecision edge_route(EdgeIndex edge) {
  RouteDecision decision;
  decision.use_fixed = false;
  decision.edge = edge;
  return decision;
}

/// JSQ's rule: the viable edge of E_p with the least load_of(e) (ties keep
/// the earliest edge of E_p), or the fixed link when no edge is viable.
/// JsqDispatcher reads the load off the impact index; bench_dispatch times
/// a scan of the queues through the same rule.
template <typename LoadOf>
RouteDecision jsq_route(const Engine& engine, const Packet& packet, LoadOf&& load_of) {
  const auto edges = engine.viable_edges(packet.source, packet.destination);
  if (edges.empty()) return fixed_route(engine, packet);
  EdgeIndex best = edges.front();
  std::int64_t best_load = std::numeric_limits<std::int64_t>::max();
  for (EdgeIndex e : edges) {
    const std::int64_t load = load_of(e);
    if (load < best_load) {
      best_load = load;
      best = e;
    }
  }
  return edge_route(best);
}

class RandomDispatcher final : public DispatchPolicy {
 public:
  explicit RandomDispatcher(std::uint64_t seed = 1) : rng_(seed) {}
  RouteDecision dispatch(const Engine& engine, const Packet& packet) override;

 private:
  Rng rng_;
};

class RoundRobinDispatcher final : public DispatchPolicy {
 public:
  RouteDecision dispatch(const Engine& engine, const Packet& packet) override;

 private:
  std::map<std::pair<NodeIndex, NodeIndex>, std::size_t> cursor_;
};

class JsqDispatcher final : public DispatchPolicy {
 public:
  RouteDecision dispatch(const Engine& engine, const Packet& packet) override;
};

class MinDelayDispatcher final : public DispatchPolicy {
 public:
  RouteDecision dispatch(const Engine& engine, const Packet& packet) override;
};

class DirectOnlyDispatcher final : public DispatchPolicy {
 public:
  RouteDecision dispatch(const Engine& engine, const Packet& packet) override;
};

}  // namespace rdcn

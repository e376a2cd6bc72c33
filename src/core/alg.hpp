#pragma once

// The paper's online algorithm ALG (Section III):
//  * ImpactDispatcher  -- the greedy-dispatch rule of Section III-B
//    (impact_route): commit each arriving packet to the route minimizing
//    its worst-case impact, i.e. argmin_e Delta_p(e), or the fixed direct
//    link when w_p * dl(p) <= min_e Delta_p(e);
//  * StableMatchingScheduler -- the scheduler of Section III-C: per step,
//    greedily build a stable matching of pending chunks, scanning them in
//    decreasing weight / increasing arrival order.
//
// run_alg() wires both into the engine; its RouteDecision::alpha values
// are exactly the dual variables alpha_p of Section IV-B.

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"
#include "sim/greedy_select.hpp"

namespace rdcn {

/// ALG's dispatch rule, the one place impacts become a RouteDecision: the
/// viable edge of E_p with the least delta_of(e) (ties keep the earliest
/// edge of E_p), unless the fixed link is at least as cheap (w_p * dl(p)
/// <= min Delta) or no edge is viable; alpha is the chosen bound. Throws
/// std::logic_error when the packet has neither. ImpactDispatcher passes
/// impact_of's Delta; the differential checker and bench_dispatch pass
/// theirs through the same rule.
template <typename DeltaOf>
RouteDecision impact_route(const Engine& engine, const Packet& packet,
                           DeltaOf&& delta_of) {
  double best_delta = std::numeric_limits<double>::infinity();
  EdgeIndex best_edge = kInvalidEdge;
  for (EdgeIndex e : engine.viable_edges(packet.source, packet.destination)) {
    const double delta = delta_of(e);
    if (delta < best_delta) {
      best_delta = delta;
      best_edge = e;
    }
  }
  const auto direct =
      engine.topology().fixed_link_delay(packet.source, packet.destination);
  RouteDecision decision;
  if (direct && (best_edge == kInvalidEdge ||
                 packet.weight * static_cast<double>(*direct) <= best_delta)) {
    decision.use_fixed = true;
    decision.alpha = packet.weight * static_cast<double>(*direct);
    return decision;
  }
  if (best_edge == kInvalidEdge) throw std::logic_error("packet has no route");
  decision.use_fixed = false;
  decision.edge = best_edge;
  decision.alpha = best_delta;
  return decision;
}

class ImpactDispatcher final : public DispatchPolicy {
 public:
  RouteDecision dispatch(const Engine& engine, const Packet& packet) override;
};

class StableMatchingScheduler final : public SchedulePolicy {
 public:
  void select(const Engine& engine, Time now, const std::vector<Candidate>& candidates,
              Selection& out) override;
  /// Only an edge's priority head can be accepted (see select()).
  HeadKinds heads() const noexcept override { return HeadKinds::Priority; }

 private:
  GreedySelectScratch scratch_;  ///< the capacity-1 pass
  // b-matching path (endpoint_capacity > 1): stamped per-endpoint load
  // counters and a stamped per-edge used flag -- the capacitated greedy
  // stable b-matching, run in place (tests/capacitated_matching.hpp keeps
  // a reference implementation and its stability checker).
  std::uint64_t serial_ = 0;
  std::vector<std::uint64_t> t_load_stamp_, r_load_stamp_, edge_used_stamp_;
  std::vector<std::int32_t> t_load_, r_load_;
};

/// Runs ALG on the instance in batch mode. The dual-fitting witness and
/// the charging audit read everything they need from the outcomes.
RunResult run_alg(const Instance& instance, EngineOptions options = {});

}  // namespace rdcn

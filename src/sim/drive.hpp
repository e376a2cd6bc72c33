#pragma once

// The stage clock: the one loop that steps an Engine through an arrival
// sequence while timed events -- stage edges -- take effect.
// Engine::run(schedule) (edge hook: apply_mutation),
// StreamRunner::run_repetition (edge hook: stage entry -- mutation,
// per-stage statistics, traffic swap) and the differential checker's
// streamed replay all drive through it, with or without edges, so the
// rule is written once:
//
//   edge k at time T_k governs every step with now() >= T_k. Its hook runs
//   at the step boundary before the first such step, and an idle jump
//   towards the next arrival is clamped to T_k - 1, so no edge is skipped
//   however sparse the arrivals are.
//
// The loop is a template over its hooks, so a driver's per-packet and
// per-step work inlines into it (no indirect call per packet).

#include <vector>

#include "sim/engine.hpp"

namespace rdcn {

/// Drives `engine` one step at a time until the arrivals are exhausted and
/// nothing is pending, or `stop()` returns true at a step boundary.
///
///  * arrival cursor: `peek()` returns the next packet not yet injected
///    (nullptr once exhausted; arrivals nondecreasing, ids sequential) and
///    `pop()` moves past it after the drive injected it;
///  * `edges`: nondecreasing stage-edge times T_k; `on_edge(k)` runs once
///    per edge, in order, at the boundary before the first step with
///    now() >= T_k (edges at T_k <= 1 run before the first step);
///  * `stop()` is asked at every boundary where work remains, after the
///    due edge hooks ran;
///  * `on_step()` runs after every finish_step().
template <typename Peek, typename Pop, typename OnEdge, typename Stop, typename OnStep>
void drive(Engine& engine, Peek&& peek, Pop&& pop, const std::vector<Time>& edges,
           OnEdge&& on_edge, Stop&& stop, OnStep&& on_step) {
  std::size_t next_edge = 0;
  while (true) {
    // The next step's clock is now()+1 (an idle jump goes further, but
    // never past the next edge's T - 1: see the clamp below).
    while (next_edge < edges.size() && edges[next_edge] <= engine.now() + 1) {
      on_edge(next_edge++);
    }
    const Packet* next = peek();
    if (next == nullptr && !engine.busy()) return;
    if (stop()) return;
    const Time* upcoming = next != nullptr ? &next->arrival : nullptr;
    Time edge_bound = 0;
    if (next_edge < edges.size()) {
      edge_bound = edges[next_edge] - 1;
      if (upcoming == nullptr || edge_bound < *upcoming) upcoming = &edge_bound;
    }
    engine.begin_step(upcoming);
    for (next = peek(); next != nullptr && next->arrival == engine.now(); next = peek()) {
      engine.inject(*next);
      pop();
    }
    engine.finish_step();
    on_step();
  }
}

/// Replays a recorded arrival sequence, applying each mutation of
/// `schedule` (sorted by `at`) at its edge. Engine::run(schedule) and the
/// differential checker's streamed replay both drive through it.
inline void drive_recorded(Engine& engine, const std::vector<Packet>& packets,
                           const std::vector<TimedMutation>& schedule) {
  std::vector<Time> edges;
  edges.reserve(schedule.size());
  for (const TimedMutation& timed : schedule) edges.push_back(timed.at);
  std::size_t next = 0;
  const auto peek = [&] { return next < packets.size() ? &packets[next] : nullptr; };
  const auto pop = [&] { ++next; };
  const auto apply = [&](std::size_t k) { engine.apply_mutation(schedule[k].mutation); };
  drive(engine, peek, pop, edges, apply, [] { return false; }, [] {});
}

}  // namespace rdcn

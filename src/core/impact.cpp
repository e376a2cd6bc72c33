#include "core/impact.hpp"

namespace rdcn {

namespace {

/// The deterministic parts of Delta_p(e) shared by both formulations. The
/// engine precomputes d(u) + (d(e) + 1)/2 + d(v) per edge with the same
/// association this function used to spell out, so base is bit-identical.
ImpactBreakdown base_terms(const Engine& engine, const Packet& packet, EdgeIndex e,
                           double& d, double& own_chunk_weight) {
  const Engine::EdgeMeta& meta = engine.edge_meta(e);
  d = meta.delay;
  own_chunk_weight = packet.weight / d;
  ImpactBreakdown breakdown;
  breakdown.base = packet.weight * meta.base_coeff;
  return breakdown;
}

}  // namespace

ImpactBreakdown impact_of(const Engine& engine, const Packet& packet, EdgeIndex e) {
  double d = 0.0;
  double own_chunk_weight = 0.0;
  ImpactBreakdown breakdown = base_terms(engine, packet, e, d, own_chunk_weight);

  // All pending packets arrived (in sequence order) before `packet`,
  // because the dispatcher runs at arrival time before enqueueing it; so
  // every pending chunk is in B_p and ties in weight go to H. The index's
  // strictly-below query at threshold w_p/d(e) realizes exactly that >=
  // convention: the at-or-above complement is H.
  const ImpactSplit split = engine.impact_split(e, own_chunk_weight);
  breakdown.h_count = split.heavier;
  breakdown.l_weight = split.lighter_weight;

  breakdown.delta = breakdown.base + packet.weight * static_cast<double>(breakdown.h_count) +
                    d * breakdown.l_weight;
  return breakdown;
}

ImpactBreakdown impact_of_scan(const Engine& engine, const Packet& packet, EdgeIndex e) {
  const ReconfigEdge& edge = engine.topology().edge(e);
  double d = 0.0;
  double own_chunk_weight = 0.0;
  ImpactBreakdown breakdown = base_terms(engine, packet, e, d, own_chunk_weight);

  // Every pending chunk at e's transmitter or receiver: the queues of the
  // edges incident to either, each packet once (a parallel edge of e's
  // pair shares both endpoints).
  engine.for_each_pending_at(edge.transmitter, edge.receiver, [&](const Candidate& c) {
    if (c.chunk_weight >= own_chunk_weight) {
      breakdown.h_count += c.remaining;
    } else {
      breakdown.l_weight += static_cast<double>(c.remaining) * c.chunk_weight;
    }
  });

  breakdown.delta = breakdown.base + packet.weight * static_cast<double>(breakdown.h_count) +
                    d * breakdown.l_weight;
  return breakdown;
}

}  // namespace rdcn

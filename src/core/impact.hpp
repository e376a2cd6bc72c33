#pragma once

// Worst-case impact Delta_p(e) of Section III-B: the dispatcher's estimate
// of the weighted-latency increase caused by committing packet p to edge
// e = (t, r), given the chunks already pending in the system:
//
//   Delta_p(e) = w_p * ( d(src,t) + (d(e)+1)/2 + d(r,dest) )   (base path)
//              + w_p * |H_p(e)|                                (p blocked)
//              + d(e) * w(L_p(e))                              (p blocks)
//
// where A_p(e) is the set of pending chunks of earlier-arrived packets
// assigned to edges sharing t or r with e; H_p(e) are those at least as
// heavy as w_p/d(e) (ties prefer the earlier packet, hence >= on weights),
// and L_p(e) the strictly lighter ones.

#include "sim/engine.hpp"

namespace rdcn {

struct ImpactBreakdown {
  double base = 0.0;      ///< w_p * (d(u) + (d(e)+1)/2 + d(v))
  std::int64_t h_count = 0;  ///< |H_p(e)|: pending chunks that may block p
  double l_weight = 0.0;  ///< w(L_p(e)): weight of chunks p may block
  double delta = 0.0;     ///< the full Delta_p(e)
};

/// Computes Delta_p(e) against the engine's current pending state (the
/// packet itself must not have been enqueued yet). Resolves |H_p(e)| and
/// w(L_p(e)) through the engine's incremental impact index in O(log n);
/// h_count is exact, l_weight carries the index's canonical summation
/// order (see sim/impact_index.hpp).
ImpactBreakdown impact_of(const Engine& engine, const Packet& packet, EdgeIndex e);

/// The pre-index formulation: a full scan of the engine's pending
/// candidates (pending_candidates() plus staged_candidates()), keeping the
/// ones at e's transmitter or receiver. O(pending) per call -- kept as the
/// verification oracle behind check/'s differential cross-validation and
/// the property tests; not on any hot path. Agrees with impact_of exactly
/// on base/h_count and to summation-reassociation tolerance on
/// l_weight/delta.
ImpactBreakdown impact_of_scan(const Engine& engine, const Packet& packet, EdgeIndex e);

}  // namespace rdcn

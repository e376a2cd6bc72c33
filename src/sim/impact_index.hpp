#pragma once

// Incremental per-endpoint impact index (ISSUE 6): the engine-maintained
// order-statistic aggregate behind O(log n) Delta_p(e) queries.
//
// impact_of must resolve, for a probe chunk weight w_p/d(e) against the
// chunks pending at e's transmitter t and receiver r,
//
//   |H_p(e)|   -- count of pending chunks with chunk weight >= w_p/d(e)
//                 (ties go to H: every pending packet arrived earlier), and
//   w(L_p(e))  -- total weight of the strictly lighter pending chunks,
//
// which the naive rule re-derives by scanning the pending candidates at
// both endpoints per candidate edge. This index instead maintains one weight-keyed treap per
// transmitter, per receiver, and per (t, r) edge group ("pair": parallel
// edges share pending state), each node aggregating every pending chunk of
// one distinct chunk-weight key:
//
//   count          exact remaining-chunk total at this key (int64)
//   value          (double)count * key, re-rounded on every count change
//   sum            subtree total, always bracketed (left + value) + right
//   subtree_count  subtree chunk total (exact)
//
// A query descends once, accumulating the strictly-below-threshold count
// and weight sum; the at-or-above count is the (exact integer) complement.
// The split for an edge combines the three structures with a fixed shape:
//
//   |H| = (H_t + H_r) - H_pair        w(L) = (L_t + L_r) - L_pair
//
// (the pair structure removes the packets counted at both endpoints --
// exactly those assigned to a parallel edge of the same pair).
//
// DETERMINISM BY CANONICAL SHAPE. Floating-point sums are association-
// sensitive, and an incremental structure cannot reproduce a flat
// scan-order sum bit-for-bit. The index therefore defines its own
// canonical summation order and makes it a pure function of the pending
// multiset: each node's heap priority is a stateless hash of its key's
// bits, so the treap shape -- hence every bracketing -- depends only on
// the SET of live keys, never on insertion/removal history. Rebuilding
// from scratch provably reproduces the incrementally-maintained sums bit
// for bit, which is what check/'s differential oracle and the property
// tests in tests/test_impact_index.cpp pin. Against the naive queue-order
// scan, |H| matches exactly (integer) while w(L) agrees to reassociation
// tolerance. The engine's schedule goldens verify that this never flips a
// dispatch decision on the pinned workloads.
//
// LIFECYCLE. Integer per-endpoint/per-pair chunk-load counters are always
// maintained, O(1) eagerly, on dispatch, per-chunk service, and unlisting
// -- they make JSQ's edge load a three-counter read with bit-identical
// results. The weight treaps are lazily enabled on the first impact query
// (rebuilt from the engine's candidate lists) and thereafter maintained
// through a deferred-event queue flushed at query time: because the
// structure is a pure function of the current multiset, batching updates
// is equivalent to applying them eagerly. If many maintenance events
// accumulate with no impact query between them (a pure drain under a
// non-impact policy), the weight structures decay -- they are dropped and
// rebuilt at the next query -- so idle maintenance stays O(1) per event
// and bounded in memory. All storage is pooled and grow-once: at steady
// state neither queries nor maintenance touch the heap (pinned by
// tests/test_hotpath.cpp's allocation counter).

#include <cstdint>
#include <vector>

#include "net/topology.hpp"
#include "sim/policy.hpp"

namespace rdcn {

/// Chunks strictly below a weight threshold: exact count plus the
/// canonically-bracketed weight sum.
struct WeightBelow {
  std::int64_t chunks = 0;
  double weight = 0.0;
};

/// The two pending-state terms of Delta_p(e).
struct ImpactSplit {
  std::int64_t heavier = 0;       ///< |H_p(e)|, exact
  double lighter_weight = 0.0;    ///< w(L_p(e)), canonical bracketing
};

/// The single combination formula shared by the live index and every
/// verification oracle, so "bit-for-bit" has one definition: transmitter
/// plus receiver minus the pair overlap, in exactly this association.
inline ImpactSplit combine_impact(std::int64_t t_chunks, const WeightBelow& t,
                                  std::int64_t r_chunks, const WeightBelow& r,
                                  std::int64_t pair_chunks, const WeightBelow& pair) {
  ImpactSplit split;
  split.heavier =
      (t_chunks - t.chunks) + (r_chunks - r.chunks) - (pair_chunks - pair.chunks);
  split.lighter_weight = (t.weight + r.weight) - pair.weight;
  return split;
}

namespace impact_detail {

/// One distinct chunk-weight key of one aggregate (see file comment).
struct TreapNode {
  double key = 0.0;
  double value = 0.0;  ///< (double)count * key
  double sum = 0.0;    ///< (left.sum + value) + right.sum
  std::int64_t count = 0;
  std::int64_t subtree_count = 0;
  std::uint64_t priority = 0;  ///< stateless hash of key bits
  std::int32_t left = -1;
  std::int32_t right = -1;
};

/// Arena of hash-priority treaps: many roots share one node pool (plus a
/// free list), so per-endpoint aggregates cost nothing when empty and the
/// pool grows once to the high-water number of distinct live keys.
class TreapStore {
 public:
  /// Adds `delta` chunks (may be negative) at `key`; returns the new root.
  /// A key whose count reaches zero leaves the tree; removing from an
  /// absent key is an engine bug and throws.
  std::int32_t add(std::int32_t root, double key, std::int64_t delta);

  /// Count and canonical weight sum of the keys strictly below `threshold`.
  WeightBelow below(std::int32_t root, double threshold) const;

  /// Total chunks in the tree (0 for an empty root).
  std::int64_t chunks(std::int32_t root) const {
    return root < 0 ? 0 : pool_[static_cast<std::size_t>(root)].subtree_count;
  }

  /// Drops every tree (roots become dangling; callers reset theirs to -1).
  /// Keeps the pool's capacity.
  void reset() {
    pool_.clear();
    free_ = -1;
    live_ = 0;
  }

  void reserve(std::size_t nodes) {
    pool_.reserve(nodes);
    path_.reserve(64);
  }
  std::size_t live_nodes() const noexcept { return live_; }
  std::size_t pool_capacity() const noexcept { return pool_.capacity(); }

 private:
  std::int32_t add_slow(std::int32_t root, double key, std::int64_t delta);
  std::int32_t alloc(double key, std::int64_t count);
  void release(std::int32_t n);
  void pull(std::int32_t n);
  bool higher_priority(std::int32_t a, std::int32_t b) const;
  std::int32_t rotate_left(std::int32_t n);
  std::int32_t rotate_right(std::int32_t n);
  std::int32_t join(std::int32_t a, std::int32_t b);

  std::vector<TreapNode> pool_;
  std::int32_t free_ = -1;  ///< free-list head threaded through `left`
  std::size_t live_ = 0;
  std::vector<std::int32_t> path_;  ///< add()'s fast-path search-path scratch
};

}  // namespace impact_detail

/// Standalone single-endpoint aggregate over an explicit (chunk_weight,
/// chunks) multiset, built on the same treap code as the live index. The
/// verification oracle: feed it a queue's pending chunks in ANY order and
/// its below()/chunks() reproduce the incrementally-maintained index bit
/// for bit (canonical shape; see file comment).
class ImpactAggregate {
 public:
  void add(double chunk_weight, std::int64_t delta) {
    root_ = store_.add(root_, chunk_weight, delta);
  }
  std::int64_t chunks() const { return store_.chunks(root_); }
  WeightBelow below(double threshold) const { return store_.below(root_, threshold); }
  void clear() {
    store_.reset();
    root_ = -1;
  }

 private:
  impact_detail::TreapStore store_;
  std::int32_t root_ = -1;
};

class ImpactIndex {
 public:
  /// Binds the index to a topology: sizes the per-endpoint arrays and
  /// groups parallel edges into (t, r) pairs. Called from Engine::init.
  void attach(const Topology& topology);

  /// Presizes the treap pool for an expected pending-packet population
  /// (batch mode passes the instance size; each pending packet occupies at
  /// most three nodes, typically shared between packets of equal key).
  void reserve_pending(std::size_t packets);

  std::int32_t pair_of(EdgeIndex e) const {
    return pair_of_[static_cast<std::size_t>(e)];
  }
  std::int32_t num_pairs() const noexcept { return num_pairs_; }

  /// The engine's single mutation hook: `delta` chunks of one packet with
  /// the given chunk weight enter (dispatch) or leave (per-chunk service,
  /// unlisting) edge `e`. Counters update eagerly; weight-structure
  /// updates are deferred until the next query.
  void add_chunks(NodeIndex t, NodeIndex r, EdgeIndex e, double chunk_weight,
                  std::int64_t delta);

  // --- O(1) integer loads (always on) -------------------------------------

  std::int64_t transmitter_chunks(NodeIndex t) const {
    return t_chunks_[static_cast<std::size_t>(t)];
  }
  std::int64_t receiver_chunks(NodeIndex r) const {
    return r_chunks_[static_cast<std::size_t>(r)];
  }
  std::int64_t pair_chunks(std::int32_t pair) const {
    return p_chunks_[static_cast<std::size_t>(pair)];
  }
  /// JSQ's signal: pending chunks parked at e's endpoints, each packet
  /// counted once. Bit-identical to the old two-queue scan (integer sums
  /// commute), at O(1).
  std::int64_t edge_load(EdgeIndex e) const {
    const ReconfigEdge& edge = topology_->edge(e);
    return t_chunks_[static_cast<std::size_t>(edge.transmitter)] +
           r_chunks_[static_cast<std::size_t>(edge.receiver)] -
           p_chunks_[static_cast<std::size_t>(pair_of_[static_cast<std::size_t>(e)])];
  }

  // --- weight-structure queries (lazily enabled) --------------------------

  bool weight_ready() const noexcept { return weight_ready_; }

  /// (Re)builds the weight treaps from the engine's candidate lists (the
  /// full pending multiset) and enables query-time maintenance. The engine
  /// calls this lazily on the first impact query and again after a decay.
  void rebuild(const std::vector<Candidate>& merged, const std::vector<Candidate>& staged);

  /// |H| and w(L) for edge `e` at `threshold` = w_p/d(e); requires
  /// weight_ready(). Flushes deferred maintenance first (O(log n) each),
  /// then answers in O(log n).
  ImpactSplit edge_split(EdgeIndex e, double threshold);

  /// Test hooks.
  std::size_t deferred_events() const noexcept { return events_.size(); }
  std::size_t live_weight_nodes() const noexcept { return store_.live_nodes(); }
  /// Times rebuild() ran (lazy enables + post-decay rebuilds) -- surfaced
  /// as the probe's index_rebuilds counter.
  std::uint64_t rebuilds() const noexcept { return rebuilds_; }

 private:
  struct Event {
    double chunk_weight = 0.0;
    std::int64_t delta = 0;
    NodeIndex transmitter = 0;
    NodeIndex receiver = 0;
    std::int32_t pair = 0;
  };

  void apply_weight(NodeIndex t, NodeIndex r, std::int32_t pair, double chunk_weight,
                    std::int64_t delta);
  void flush();
  void decay();

  const Topology* topology_ = nullptr;
  std::vector<std::int32_t> pair_of_;  ///< edge -> (t, r) group id
  std::int32_t num_pairs_ = 0;

  std::vector<std::int64_t> t_chunks_, r_chunks_, p_chunks_;

  impact_detail::TreapStore store_;
  std::vector<std::int32_t> t_root_, r_root_, p_root_;
  std::vector<Event> events_;  ///< deferred while weight_ready_; capacity-bounded
  bool weight_ready_ = false;
  std::uint64_t rebuilds_ = 0;
};

}  // namespace rdcn

#pragma once

// Incremental per-endpoint impact index (ISSUE 6): the engine-maintained
// aggregate behind cheap Delta_p(e) queries.
//
// impact_of must resolve, for a probe chunk weight w_p/d(e) against the
// chunks pending at e's transmitter t and receiver r,
//
//   |H_p(e)|   -- count of pending chunks with chunk weight >= w_p/d(e)
//                 (ties go to H: every pending packet arrived earlier), and
//   w(L_p(e))  -- total weight of the strictly lighter pending chunks,
//
// which the naive rule re-derives by scanning the edge queues at both
// endpoints per candidate edge. This index instead keeps one weight
// aggregate per transmitter, per receiver, and per (t, r) edge group
// ("pair": parallel edges share pending state), and combines the three
// with a fixed shape:
//
//   |H| = (H_t + H_r) - H_pair        w(L) = (L_t + L_r) - L_pair
//
// (the pair aggregate removes the packets counted at both endpoints --
// exactly those assigned to a parallel edge of the same pair).
//
// An aggregate has one of two representations, chosen by the chunk
// weights themselves (see EXACT SUMS): a line of per-weight chunk counts
// while every sum is exact, and otherwise a weight-keyed treap whose nodes
// each aggregate every pending chunk of one distinct chunk-weight key:
//
//   count          exact remaining-chunk total at this key (int64)
//   value          (double)count * key, re-rounded on every count change
//   sum            subtree total, always bracketed (left + value) + right
//   subtree_count  subtree chunk total (exact)
//
// A treap query descends once, accumulating the strictly-below-threshold
// count and weight sum; the at-or-above count is the (exact integer)
// complement.
//
// DETERMINISM BY CANONICAL SHAPE. Floating-point sums are association-
// sensitive, and an incremental structure cannot reproduce a flat
// scan-order sum bit-for-bit. The treaps therefore define their own
// canonical summation order and make it a pure function of the pending
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
// EXACT SUMS. Most workloads draw few distinct chunk weights on a coarse
// grid (integer packet weights over delays 1-2 give 15 multiples of 1/2),
// and then every sum the treaps form is exact, so any summation order
// yields their bits. While that holds, the aggregates are pooled lines of
// chunk counts, one count per weight of a sorted dictionary of at most
// kMaxWeights admitted chunk weights (kept as integer counts of 2^-16
// units); an aggregate gets its line when it first holds a chunk and
// keeps it until the structures are dropped, which empties the
// dictionary too. An update is one count change per line instead of
// three treap adds, and a query finds the dictionary prefix below the
// threshold once and sums the three lines over it, slot by slot, in
// integers. A weight is admitted when its first update arrives (or a
// rebuild meets it) if
//
//   * it is a positive multiple of 2^-16 below 2^15 (w * 2^16 is an
//     integer "unit" count below 2^31),
//   * the dictionary has room, and
//   * the index's pending weight, counted in units, stays at most 2^52
//     (checked on every update).
//
// Under that gate every node value, subtree sum, prefix sum and the
// t + r - pair combination the canonical treaps would form is a multiple
// of 2^-16 of magnitude at most 2^53 units (t + r counts each pending
// chunk at most twice), hence an exact double. Exact arithmetic has no
// association, so the lines' integer sums, scaled by 2^-16, equal the
// treaps' results bit for bit -- Delta, alpha and every schedule are the
// same whichever representation answered.
//
// The first update whose weight fails the gate drops the lines and flips
// exact() to false for the rest of the index's life: the next query
// rebuilds the treaps from the engine's queues (the rebuild path below)
// and the treaps serve from then on. A rebuild that meets such a weight
// falls back the same way. The treaps stay the only path for inexact
// inputs and the oracle the differential checker builds (ImpactAggregate).
//
// LIFECYCLE. Integer per-endpoint/per-pair chunk-load counters are always
// maintained, O(1) eagerly, on dispatch, per-chunk service, and unlisting
// -- they make JSQ's edge load a three-counter read with bit-identical
// results. The weight structures (lines or treaps) are lazily enabled on
// the first impact query (rebuilt from the engine's edge queues) and
// thereafter updated as each change is reported, through the same routine
// the rebuild replays the pending multiset with; as both representations
// are pure functions of that multiset, when an update lands cannot change
// an answer. If more than max(256, 8 * min(T, R)) updates arrive with no
// impact query between them (a pure drain under a non-impact policy), the
// weight structures decay -- they are dropped and rebuilt at the next
// query -- so idle maintenance stays O(1) per update and bounded in
// memory. All storage is pooled and grow-once: at steady state neither
// queries nor maintenance touch the heap (pinned by
// tests/test_hotpath.cpp's allocation counter).

#include <array>
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

/// The single combination formula shared by the treaps and every
/// verification oracle, so "bit-for-bit" has one definition: transmitter
/// plus receiver minus the pair overlap, in exactly this association. (The
/// exact count lines reach the same bits by exact arithmetic; see EXACT
/// SUMS.)
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

  std::size_t live_nodes() const noexcept { return live_; }

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

  std::int32_t pair_of(EdgeIndex e) const {
    return pair_of_[static_cast<std::size_t>(e)];
  }
  std::int32_t num_pairs() const noexcept { return num_pairs_; }

  /// The engine's single mutation hook: `delta` chunks of one packet with
  /// the given chunk weight enter (dispatch) or leave (per-chunk service,
  /// unlisting) edge `e`. Counters update always; the weight structures,
  /// once enabled, update at once (or decay; see LIFECYCLE).
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

  /// (Re)builds the weight structures from the full pending multiset and
  /// enables their maintenance: `for_each_pending(add)` must call
  /// add(const Candidate&) once per pending candidate (as
  /// Engine::for_each_pending does). The engine calls this lazily on the
  /// first impact query and again after a decay or a fallback. Each
  /// candidate goes through update(), as a reported change does; a weight
  /// that fails the gate drops the lines and the walk repeats into the
  /// treaps.
  template <typename ForEachPending>
  void rebuild(ForEachPending&& for_each_pending) {
    ++rebuilds_;
    do {
      decay();
      weight_ready_ = true;
      for_each_pending([this](const Candidate& c) {
        if (weight_ready_ && c.remaining > 0) {
          update(c.transmitter, c.receiver, pair_of(c.edge), c.chunk_weight, c.remaining);
        }
      });
    } while (!weight_ready_);
  }

  /// |H| and w(L) for edge `e` at `threshold` = w_p/d(e); requires
  /// weight_ready(). Answers in O(kMaxWeights) from the count lines while
  /// exact(), else in O(log n) from the treaps, and restarts the decay
  /// count.
  ImpactSplit edge_split(EdgeIndex e, double threshold);

  /// Test hooks.
  /// False from the first chunk weight that failed the exact-sums gate
  /// on (EXACT SUMS); never true again for this attachment.
  bool exact() const noexcept { return exact_; }
  /// Live weight-structure entries: treap nodes plus count lines -- the
  /// probe's index_entries gauge.
  std::size_t live_entries() const noexcept { return store_.live_nodes() + lines_.size(); }
  /// Times rebuild() ran (lazy enables + post-decay rebuilds) -- surfaced
  /// as the probe's index_rebuilds counter.
  std::uint64_t rebuilds() const noexcept { return rebuilds_; }

 private:
  /// Most distinct chunk weights the exact count lines hold (EXACT SUMS).
  static constexpr int kMaxWeights = 16;
  static constexpr std::int64_t kMaxPendingUnits = std::int64_t{1} << 52;

  /// One aggregate's chunk counts per dictionary slot. Its total is the
  /// aggregate's always-on counter.
  struct CountLine {
    std::array<std::int64_t, kMaxWeights> count{};
  };

  /// The one update path, shared by add_chunks and rebuild: `delta` chunks
  /// of `chunk_weight` into the count lines through the gate while exact_,
  /// else into the treaps. A gate failure falls back instead.
  void update(NodeIndex t, NodeIndex r, std::int32_t pair, double chunk_weight,
              std::int64_t delta);
  /// The gate (EXACT SUMS), update's cold path: the dictionary slot of
  /// `chunk_weight`, inserting it if new, with `delta` chunks charged to
  /// the pending units; -1 when the weight or the new total fails.
  [[gnu::noinline]] std::int32_t admit(double chunk_weight, std::int64_t delta);
  /// The slot of an admitted `chunk_weight`, else -1.
  std::int32_t admitted_slot(double chunk_weight) const;
  /// Charges `delta` chunks of `units` to the pending units; false (and
  /// no charge) past kMaxPendingUnits.
  bool charge(std::int64_t units, std::int64_t delta) {
    std::int64_t charged = 0;
    std::int64_t pending = 0;
    if (__builtin_mul_overflow(delta, units, &charged) ||
        __builtin_add_overflow(pending_units_, charged, &pending) ||
        pending > kMaxPendingUnits) {
      return false;
    }
    pending_units_ = pending;
    return true;
  }
  /// Dictionary slots holding fewer than `units`: a prefix, as the
  /// dictionary is sorted (and its unused slots hold INT32_MAX).
  std::int32_t slots_below(std::int32_t units) const {
    std::int32_t below = 0;
    for (std::size_t i = 0; i < kMaxWeights; ++i) below += units_[i] < units ? 1 : 0;
    return below;
  }
  /// Dictionary slots whose weight is below `threshold` (any double).
  std::int32_t prefix_below(double threshold) const;
  void insert_weight(std::int32_t slot, std::int32_t units);
  void apply_line(std::int32_t& root, std::int32_t slot, std::int64_t delta);
  const CountLine& line(std::int32_t root) const {
    static const CountLine kEmpty{};
    return root < 0 ? kEmpty : lines_[static_cast<std::size_t>(root)];
  }
  void decay();
  void fall_back();

  const Topology* topology_ = nullptr;
  std::vector<std::int32_t> pair_of_;  ///< edge -> (t, r) group id
  std::int32_t num_pairs_ = 0;

  std::vector<std::int64_t> t_chunks_, r_chunks_, p_chunks_;

  /// Each aggregate's treap root or count line, per exact_ (-1: none yet).
  /// An aggregate keeps its line, emptied or not, until the weight
  /// structures are dropped, so the lines number at most T + R + pairs.
  std::vector<std::int32_t> t_root_, r_root_, p_root_;
  impact_detail::TreapStore store_;
  std::vector<CountLine> lines_;
  /// The sorted dictionary: each admitted chunk weight as its count of
  /// 2^-16 units (exact, below 2^31), INT32_MAX in the unused slots.
  std::array<std::int32_t, kMaxWeights> units_{};
  std::int32_t num_weights_ = 0;
  std::int64_t pending_units_ = 0;  ///< pending weight in units, while exact_
  bool exact_ = true;

  bool weight_ready_ = false;
  std::size_t updates_since_query_ = 0;
  std::size_t decay_after_ = 0;  ///< max(256, 8 * min(T, R)), set by attach
  std::uint64_t rebuilds_ = 0;
};

}  // namespace rdcn

#include "sim/impact_index.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/rng.hpp"

namespace rdcn {

namespace impact_detail {

namespace {

/// Heap priority = stateless hash of the key's bit pattern: two trees
/// holding the same key set always have the same shape, which is the
/// purity property every bit-for-bit guarantee in this file rests on.
std::uint64_t priority_of(double key) {
  std::uint64_t state = std::bit_cast<std::uint64_t>(key);
  return splitmix64(state);
}

}  // namespace

bool TreapStore::higher_priority(std::int32_t a, std::int32_t b) const {
  const TreapNode& na = pool_[static_cast<std::size_t>(a)];
  const TreapNode& nb = pool_[static_cast<std::size_t>(b)];
  if (na.priority != nb.priority) return na.priority > nb.priority;
  // Hash collisions between distinct keys are vanishingly rare but must
  // still order deterministically for the shape to stay canonical.
  return na.key < nb.key;
}

std::int32_t TreapStore::alloc(double key, std::int64_t count) {
  if (count <= 0) {
    throw std::logic_error("impact index: removing chunks at an absent weight key");
  }
  std::int32_t n;
  if (free_ >= 0) {
    n = free_;
    free_ = pool_[static_cast<std::size_t>(n)].left;
  } else {
    n = static_cast<std::int32_t>(pool_.size());
    pool_.emplace_back();
  }
  TreapNode& node = pool_[static_cast<std::size_t>(n)];
  node.key = key;
  node.count = count;
  node.value = static_cast<double>(count) * key;
  node.sum = node.value;
  node.subtree_count = count;
  node.priority = priority_of(key);
  node.left = node.right = -1;
  ++live_;
  return n;
}

void TreapStore::release(std::int32_t n) {
  pool_[static_cast<std::size_t>(n)].left = free_;
  free_ = n;
  --live_;
}

void TreapStore::pull(std::int32_t n) {
  TreapNode& node = pool_[static_cast<std::size_t>(n)];
  const std::int32_t l = node.left;
  const std::int32_t r = node.right;
  node.value = static_cast<double>(node.count) * node.key;
  const double left_sum = l >= 0 ? pool_[static_cast<std::size_t>(l)].sum : 0.0;
  const double right_sum = r >= 0 ? pool_[static_cast<std::size_t>(r)].sum : 0.0;
  node.sum = (left_sum + node.value) + right_sum;
  node.subtree_count = node.count +
                       (l >= 0 ? pool_[static_cast<std::size_t>(l)].subtree_count : 0) +
                       (r >= 0 ? pool_[static_cast<std::size_t>(r)].subtree_count : 0);
}

std::int32_t TreapStore::rotate_right(std::int32_t n) {
  const std::int32_t l = pool_[static_cast<std::size_t>(n)].left;
  pool_[static_cast<std::size_t>(n)].left = pool_[static_cast<std::size_t>(l)].right;
  pool_[static_cast<std::size_t>(l)].right = n;
  pull(n);
  pull(l);
  return l;
}

std::int32_t TreapStore::rotate_left(std::int32_t n) {
  const std::int32_t r = pool_[static_cast<std::size_t>(n)].right;
  pool_[static_cast<std::size_t>(n)].right = pool_[static_cast<std::size_t>(r)].left;
  pool_[static_cast<std::size_t>(r)].left = n;
  pull(n);
  pull(r);
  return r;
}

std::int32_t TreapStore::join(std::int32_t a, std::int32_t b) {
  // Joining the canonical treaps of two key ranges yields the canonical
  // treap of their union: priorities alone decide the merge order.
  if (a < 0) return b;
  if (b < 0) return a;
  if (higher_priority(a, b)) {
    const std::int32_t merged = join(pool_[static_cast<std::size_t>(a)].right, b);
    pool_[static_cast<std::size_t>(a)].right = merged;
    pull(a);
    return a;
  }
  const std::int32_t merged = join(a, pool_[static_cast<std::size_t>(b)].left);
  pool_[static_cast<std::size_t>(b)].left = merged;
  pull(b);
  return b;
}

std::int32_t TreapStore::add(std::int32_t root, double key, std::int64_t delta) {
  // Fast path: a count change at a key already in the tree (the dominant
  // stream -- one per served chunk) leaves the shape untouched, so only
  // the aggregates along the search path need recomputing. pull() here is
  // bit-identical to the recursive unwind of add_slow: same nodes, same
  // bottom-up order, same bracketing. Falls back to the general
  // insert/remove when the key is absent or its count drains to zero.
  path_.clear();
  std::int32_t n = root;
  while (n >= 0) {
    const TreapNode& node = pool_[static_cast<std::size_t>(n)];
    if (key == node.key) break;
    path_.push_back(n);
    n = key < node.key ? node.left : node.right;
  }
  if (n >= 0 && pool_[static_cast<std::size_t>(n)].count + delta > 0) {
    pool_[static_cast<std::size_t>(n)].count += delta;
    pull(n);
    for (std::size_t i = path_.size(); i-- > 0;) pull(path_[i]);
    return root;
  }
  return add_slow(root, key, delta);
}

std::int32_t TreapStore::add_slow(std::int32_t root, double key, std::int64_t delta) {
  // NOTE: pool_ may reallocate inside recursive calls (alloc), so node
  // fields are always re-read through pool_[...] after a call returns.
  if (root < 0) return alloc(key, delta);
  const double root_key = pool_[static_cast<std::size_t>(root)].key;
  if (key == root_key) {
    TreapNode& node = pool_[static_cast<std::size_t>(root)];
    node.count += delta;
    if (node.count < 0) {
      throw std::logic_error("impact index: chunk count went negative");
    }
    if (node.count == 0) {
      const std::int32_t merged = join(node.left, node.right);
      release(root);
      return merged;
    }
    pull(root);
    return root;
  }
  if (key < root_key) {
    const std::int32_t child = add_slow(pool_[static_cast<std::size_t>(root)].left, key, delta);
    pool_[static_cast<std::size_t>(root)].left = child;
    if (child >= 0 && higher_priority(child, root)) return rotate_right(root);
    pull(root);
    return root;
  }
  const std::int32_t child = add_slow(pool_[static_cast<std::size_t>(root)].right, key, delta);
  pool_[static_cast<std::size_t>(root)].right = child;
  if (child >= 0 && higher_priority(child, root)) return rotate_left(root);
  pull(root);
  return root;
}

WeightBelow TreapStore::below(std::int32_t root, double threshold) const {
  // One descent, visiting the strictly-below nodes in increasing key
  // order; the running sum's association is therefore fixed by the
  // (canonical) shape, independent of update history.
  WeightBelow result;
  std::int32_t n = root;
  while (n >= 0) {
    const TreapNode& node = pool_[static_cast<std::size_t>(n)];
    if (node.key < threshold) {
      if (node.left >= 0) {
        const TreapNode& left = pool_[static_cast<std::size_t>(node.left)];
        result.chunks += left.subtree_count;
        result.weight += left.sum;
      }
      result.chunks += node.count;
      result.weight += node.value;
      n = node.right;
    } else {
      n = node.left;
    }
  }
  return result;
}

}  // namespace impact_detail

void ImpactIndex::attach(const Topology& topology) {
  topology_ = &topology;
  const auto num_t = static_cast<std::size_t>(topology.num_transmitters());
  const auto num_r = static_cast<std::size_t>(topology.num_receivers());
  const auto num_e = static_cast<std::size_t>(topology.num_edges());

  // Group parallel edges by (transmitter, receiver) in O(E + R): walk each
  // transmitter's edges and stamp the receivers it reaches. A hash map (or
  // a sort) here is measurably expensive because attach runs once per
  // engine construction. Nothing depends on the pair numbering beyond
  // consistency.
  pair_of_.assign(num_e, -1);
  std::vector<std::int32_t> receiver_stamp(num_r, -1);
  std::vector<std::int32_t> receiver_pair(num_r, -1);
  num_pairs_ = 0;
  for (NodeIndex t = 0; t < static_cast<NodeIndex>(num_t); ++t) {
    for (EdgeIndex e : topology.edges_of_transmitter(t)) {
      const auto r = static_cast<std::size_t>(topology.edge(e).receiver);
      if (receiver_stamp[r] != t) {
        receiver_stamp[r] = t;
        receiver_pair[r] = num_pairs_++;
      }
      pair_of_[static_cast<std::size_t>(e)] = receiver_pair[r];
    }
  }

  t_chunks_.assign(num_t, 0);
  r_chunks_.assign(num_r, 0);
  p_chunks_.assign(static_cast<std::size_t>(num_pairs_), 0);
  t_root_.assign(num_t, -1);
  r_root_.assign(num_r, -1);
  p_root_.assign(static_cast<std::size_t>(num_pairs_), -1);
  decay();
  exact_ = true;
  // Sized so several full scheduling rounds of per-chunk service fit
  // between consecutive impact queries without forcing a decay/rebuild.
  decay_after_ = std::max<std::size_t>(256, 8 * std::min(num_t, num_r));
}

namespace {

/// The exact-sums gate's grid and bounds (see the header's EXACT SUMS).
constexpr double kUnitsPerWeight = 65536.0;       // 2^16
constexpr double kWeightPerUnit = 1.0 / 65536.0;  // 2^-16
constexpr double kUnitLimit = 2147483648.0;       // 2^31: weights below 2^15

}  // namespace

void ImpactIndex::add_chunks(NodeIndex t, NodeIndex r, EdgeIndex e, double chunk_weight,
                             std::int64_t delta) {
  const std::int32_t pair = pair_of_[static_cast<std::size_t>(e)];
  t_chunks_[static_cast<std::size_t>(t)] += delta;
  r_chunks_[static_cast<std::size_t>(r)] += delta;
  p_chunks_[static_cast<std::size_t>(pair)] += delta;
  if (!weight_ready_) return;
  if (updates_since_query_ == decay_after_) {
    // Long maintenance streak with no impact query in between: drop the
    // weight structures instead of maintaining them; the next query
    // rebuilds from the then-current multiset (purity makes that exact).
    decay();
    return;
  }
  ++updates_since_query_;
  update(t, r, pair, chunk_weight, delta);
}

void ImpactIndex::update(NodeIndex t, NodeIndex r, std::int32_t pair, double chunk_weight,
                         std::int64_t delta) {
  auto& t_root = t_root_[static_cast<std::size_t>(t)];
  auto& r_root = r_root_[static_cast<std::size_t>(r)];
  auto& p_root = p_root_[static_cast<std::size_t>(pair)];
  if (!exact_) {
    t_root = store_.add(t_root, chunk_weight, delta);
    r_root = store_.add(r_root, chunk_weight, delta);
    p_root = store_.add(p_root, chunk_weight, delta);
    return;
  }
  // Inline, the common case: an admitted weight whose chunks keep the
  // pending units in bounds. Anything else goes through the full gate.
  std::int32_t slot = admitted_slot(chunk_weight);
  if (slot < 0 || !charge(units_[static_cast<std::size_t>(slot)], delta)) [[unlikely]] {
    slot = admit(chunk_weight, delta);
    if (slot < 0) {
      fall_back();
      return;
    }
  }
  apply_line(t_root, slot, delta);
  apply_line(r_root, slot, delta);
  apply_line(p_root, slot, delta);
}

std::int32_t ImpactIndex::admitted_slot(double chunk_weight) const {
  // Scaling by 2^16 is exact, so the weight is a multiple of 2^-16 iff its
  // scaled value is an integer; the range test also rejects NaN.
  const double scaled = chunk_weight * kUnitsPerWeight;
  if (!(scaled >= 1.0 && scaled < kUnitLimit)) return -1;
  const auto units = static_cast<std::int32_t>(scaled);
  const std::int32_t slot = slots_below(units);
  return slot < num_weights_ && units_[static_cast<std::size_t>(slot)] == units &&
                 static_cast<double>(units) == scaled
             ? slot
             : -1;
}

std::int32_t ImpactIndex::admit(double chunk_weight, std::int64_t delta) {
  std::int32_t slot = admitted_slot(chunk_weight);
  if (slot < 0) {
    const double scaled = chunk_weight * kUnitsPerWeight;
    if (!(scaled >= 1.0 && scaled < kUnitLimit) || scaled != std::floor(scaled) ||
        num_weights_ == kMaxWeights) {
      return -1;
    }
    const auto units = static_cast<std::int32_t>(scaled);
    slot = slots_below(units);
    insert_weight(slot, units);
  }
  return charge(units_[static_cast<std::size_t>(slot)], delta) ? slot : -1;
}

void ImpactIndex::insert_weight(std::int32_t slot, std::int32_t units) {
  // Every line opens the new slot.
  const auto at = static_cast<std::size_t>(slot);
  const auto end = static_cast<std::size_t>(num_weights_);
  for (CountLine& line : lines_) {
    std::copy_backward(line.count.begin() + at, line.count.begin() + end,
                       line.count.begin() + end + 1);
    line.count[at] = 0;
  }
  std::copy_backward(units_.begin() + at, units_.begin() + end, units_.begin() + end + 1);
  units_[at] = units;
  ++num_weights_;
}

std::int32_t ImpactIndex::prefix_below(double threshold) const {
  // weight < threshold iff units < threshold * 2^16 (exact scaling) iff
  // units < ceil(threshold * 2^16), the units being integers.
  const double scaled = threshold * kUnitsPerWeight;
  if (!(scaled > 0.0)) return 0;  // also NaN, as the treaps' `key < NaN`
  if (scaled > kUnitLimit - 1.0) return num_weights_;  // above every unit count
  auto bound = static_cast<std::int32_t>(scaled);  // the floor, as scaled > 0
  if (static_cast<double>(bound) < scaled) ++bound;
  return slots_below(bound);
}

void ImpactIndex::apply_line(std::int32_t& root, std::int32_t slot, std::int64_t delta) {
  if (root < 0) {
    root = static_cast<std::int32_t>(lines_.size());
    lines_.emplace_back();  // grows once, to the aggregates that ever held a chunk
  }
  std::int64_t& count = lines_[static_cast<std::size_t>(root)].count[static_cast<std::size_t>(slot)];
  count += delta;
  if (count < 0) throw std::logic_error("impact index: chunk count went negative");
}

void ImpactIndex::decay() {
  store_.reset();
  lines_.clear();
  units_.fill(std::numeric_limits<std::int32_t>::max());
  num_weights_ = 0;
  pending_units_ = 0;
  std::fill(t_root_.begin(), t_root_.end(), -1);
  std::fill(r_root_.begin(), r_root_.end(), -1);
  std::fill(p_root_.begin(), p_root_.end(), -1);
  updates_since_query_ = 0;
  weight_ready_ = false;
}

void ImpactIndex::fall_back() {
  exact_ = false;
  decay();
}

ImpactSplit ImpactIndex::edge_split(EdgeIndex e, double threshold) {
  if (!weight_ready_) {
    throw std::logic_error("impact index: edge_split before rebuild");
  }
  updates_since_query_ = 0;
  const ReconfigEdge& edge = topology_->edge(e);
  const auto t = static_cast<std::size_t>(edge.transmitter);
  const auto r = static_cast<std::size_t>(edge.receiver);
  const auto pair = static_cast<std::size_t>(pair_of_[static_cast<std::size_t>(e)]);
  const std::int32_t t_root = t_root_[t];
  const std::int32_t r_root = r_root_[r];
  const std::int32_t p_root = p_root_[pair];
  if (exact_) {
    // Summed slot by slot, (t + r) - pair: every partial is an exact
    // multiple of 2^-16 below 2^53 units, so this is combine_impact's
    // result over the treaps, bit for bit (EXACT SUMS). The lines total
    // the always-on counters.
    const CountLine& t_line = line(t_root);
    const CountLine& r_line = line(r_root);
    const CountLine& p_line = line(p_root);
    const auto prefix = static_cast<std::size_t>(prefix_below(threshold));
    std::int64_t chunks = 0;
    std::int64_t units = 0;
    for (std::size_t i = 0; i < prefix; ++i) {
      const std::int64_t c = t_line.count[i] + r_line.count[i] - p_line.count[i];
      chunks += c;
      units += c * units_[i];
    }
    ImpactSplit split;
    split.heavier = (t_chunks_[t] + r_chunks_[r] - p_chunks_[pair]) - chunks;
    split.lighter_weight = static_cast<double>(units) * kWeightPerUnit;
    return split;
  }
  return combine_impact(store_.chunks(t_root), store_.below(t_root, threshold),
                        store_.chunks(r_root), store_.below(r_root, threshold),
                        store_.chunks(p_root), store_.below(p_root, threshold));
}

}  // namespace rdcn

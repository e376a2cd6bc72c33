#pragma once

// The two-tiered hybrid network model of Section II of the paper.
//
// G = (V, E, d) with V partitioned into four layers: sources S, transmitters
// T, receivers R, destinations D. Every transmitter is attached to exactly
// one source, every receiver to exactly one destination; attach edges carry
// a nonnegative delay. Transmitter-receiver edges form the reconfigurable
// layer and carry delay >= 1 (per step, the set of active reconfigurable
// edges must be a matching). Optionally, fixed direct source->destination
// links Eℓ model the hybrid part; the paper's LP places no capacity
// constraint on them, so they are uncapacitated here as well.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace rdcn {

using NodeIndex = std::int32_t;
using EdgeIndex = std::int32_t;
using Delay = std::int64_t;

constexpr EdgeIndex kInvalidEdge = -1;

/// A transmitter-receiver edge of the reconfigurable layer.
struct ReconfigEdge {
  NodeIndex transmitter = 0;
  NodeIndex receiver = 0;
  Delay delay = 1;  ///< d(e) >= 1; transmitting one unit takes d(e) steps.
};

/// A fixed direct source->destination link (the hybrid layer).
struct FixedLink {
  NodeIndex source = 0;
  NodeIndex destination = 0;
  Delay delay = 1;  ///< dℓ; a packet sent here completes after dℓ steps.
};

class Topology {
 public:
  Topology() = default;

  // --- construction -------------------------------------------------------

  /// Adds `count` sources/destinations; returns the index of the first.
  NodeIndex add_sources(NodeIndex count);
  NodeIndex add_destinations(NodeIndex count);

  /// Adds a transmitter attached to `source` with attach delay d(src, t).
  NodeIndex add_transmitter(NodeIndex source, Delay attach_delay = 0);
  /// Adds a receiver attached to `destination` with attach delay d(r, dest).
  NodeIndex add_receiver(NodeIndex destination, Delay attach_delay = 0);

  /// Adds a reconfigurable edge (delay >= 1). Returns its index.
  EdgeIndex add_edge(NodeIndex transmitter, NodeIndex receiver, Delay delay = 1);

  /// Adds (or tightens) a fixed direct link between a source-destination
  /// pair. Keeping the minimum delay mirrors the model's single dℓ(p).
  void add_fixed_link(NodeIndex source, NodeIndex destination, Delay delay);

  // --- queries ------------------------------------------------------------

  NodeIndex num_sources() const noexcept { return num_sources_; }
  NodeIndex num_destinations() const noexcept { return num_destinations_; }
  NodeIndex num_transmitters() const noexcept {
    return static_cast<NodeIndex>(transmitter_source_.size());
  }
  NodeIndex num_receivers() const noexcept {
    return static_cast<NodeIndex>(receiver_destination_.size());
  }
  EdgeIndex num_edges() const noexcept { return static_cast<EdgeIndex>(edges_.size()); }

  NodeIndex source_of(NodeIndex transmitter) const { return transmitter_source_.at(transmitter); }
  NodeIndex destination_of(NodeIndex receiver) const { return receiver_destination_.at(receiver); }
  Delay transmitter_attach_delay(NodeIndex transmitter) const {
    return transmitter_attach_delay_.at(transmitter);
  }
  Delay receiver_attach_delay(NodeIndex receiver) const {
    return receiver_attach_delay_.at(receiver);
  }

  const ReconfigEdge& edge(EdgeIndex e) const { return edges_.at(static_cast<std::size_t>(e)); }
  const std::vector<ReconfigEdge>& edges() const noexcept { return edges_; }

  /// d̂(e) = d(src(t), t) + d(e) + d(r, dest(r)): total path delay of e.
  Delay total_edge_delay(EdgeIndex e) const;

  const std::vector<EdgeIndex>& edges_of_transmitter(NodeIndex t) const {
    return edges_of_transmitter_.at(t);
  }
  const std::vector<EdgeIndex>& edges_of_receiver(NodeIndex r) const {
    return edges_of_receiver_.at(r);
  }
  const std::vector<NodeIndex>& transmitters_of_source(NodeIndex s) const {
    return transmitters_of_source_.at(s);
  }
  const std::vector<NodeIndex>& receivers_of_destination(NodeIndex d) const {
    return receivers_of_destination_.at(d);
  }

  /// E_p for a (source, destination) pair: all reconfigurable edges (t, r)
  /// with src(t) = s and dest(r) = d, per source transmitter in order,
  /// then per transmitter edge in order (the order dispatch tie-breaks
  /// follow), as a view into the pair cache -- no allocation, no scan.
  /// Valid until the next mutation. Throws std::out_of_range for a bad
  /// source; empty for a destination out of range.
  std::span<const EdgeIndex> pair_edges(NodeIndex source, NodeIndex destination) const;

  /// dℓ for the pair, if a fixed direct link exists (nullopt for pairs out
  /// of range). One table read from the pair cache.
  std::optional<Delay> fixed_link_delay(NodeIndex source, NodeIndex destination) const;
  const std::vector<FixedLink>& fixed_links() const noexcept { return fixed_links_; }

  /// True if at least one route (reconfigurable or fixed) exists.
  bool routable(NodeIndex source, NodeIndex destination) const;

  /// Validates all internal invariants; returns an error message or empty.
  std::string validate() const;

 private:
  /// Builds the lazy (source, destination) -> edges CSR that backs
  /// pair_edges, and the per-pair fixed-link delays. Buckets are filled in
  /// the same order the uncached scan visited edges (per-source
  /// transmitter order, then per-transmitter edge order), so dispatch
  /// argmin tie-breaks -- and therefore schedules -- are unchanged.
  void build_pair_cache() const;
  std::size_t pair_index(NodeIndex source, NodeIndex destination) const {
    return static_cast<std::size_t>(source) *
               static_cast<std::size_t>(num_destinations_) +
           static_cast<std::size_t>(destination);
  }
  NodeIndex num_sources_ = 0;
  NodeIndex num_destinations_ = 0;

  std::vector<NodeIndex> transmitter_source_;
  std::vector<Delay> transmitter_attach_delay_;
  std::vector<NodeIndex> receiver_destination_;
  std::vector<Delay> receiver_attach_delay_;

  std::vector<ReconfigEdge> edges_;
  std::vector<std::vector<EdgeIndex>> edges_of_transmitter_;
  std::vector<std::vector<EdgeIndex>> edges_of_receiver_;
  std::vector<std::vector<NodeIndex>> transmitters_of_source_;
  std::vector<std::vector<NodeIndex>> receivers_of_destination_;

  std::vector<FixedLink> fixed_links_;

  // Pair lookups are the per-dispatch inner loop; the uncached scans (over
  // every edge of the source's transmitters, and over every fixed link)
  // dominated end-to-end profiles. CSR over (source, destination) pairs
  // plus each pair's fixed-link delay, built on first query and
  // invalidated by any mutation.
  mutable std::vector<EdgeIndex> pair_edges_;
  mutable std::vector<std::int32_t> pair_offsets_;  ///< num_sources*num_destinations + 1
  mutable std::vector<Delay> pair_fixed_delay_;     ///< per pair; 0 = no fixed link
  mutable bool pair_cache_ready_ = false;
};

}  // namespace rdcn

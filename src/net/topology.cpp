#include "net/topology.hpp"

#include <sstream>
#include <stdexcept>

namespace rdcn {

NodeIndex Topology::add_sources(NodeIndex count) {
  if (count < 0) throw std::invalid_argument("negative source count");
  pair_cache_ready_ = false;
  const NodeIndex first = num_sources_;
  num_sources_ += count;
  transmitters_of_source_.resize(static_cast<std::size_t>(num_sources_));
  return first;
}

NodeIndex Topology::add_destinations(NodeIndex count) {
  if (count < 0) throw std::invalid_argument("negative destination count");
  pair_cache_ready_ = false;
  const NodeIndex first = num_destinations_;
  num_destinations_ += count;
  receivers_of_destination_.resize(static_cast<std::size_t>(num_destinations_));
  return first;
}

NodeIndex Topology::add_transmitter(NodeIndex source, Delay attach_delay) {
  if (source < 0 || source >= num_sources_) throw std::out_of_range("bad source index");
  if (attach_delay < 0) throw std::invalid_argument("negative attach delay");
  pair_cache_ready_ = false;
  const auto index = static_cast<NodeIndex>(transmitter_source_.size());
  transmitter_source_.push_back(source);
  transmitter_attach_delay_.push_back(attach_delay);
  edges_of_transmitter_.emplace_back();
  transmitters_of_source_[static_cast<std::size_t>(source)].push_back(index);
  return index;
}

NodeIndex Topology::add_receiver(NodeIndex destination, Delay attach_delay) {
  if (destination < 0 || destination >= num_destinations_) {
    throw std::out_of_range("bad destination index");
  }
  if (attach_delay < 0) throw std::invalid_argument("negative attach delay");
  pair_cache_ready_ = false;
  const auto index = static_cast<NodeIndex>(receiver_destination_.size());
  receiver_destination_.push_back(destination);
  receiver_attach_delay_.push_back(attach_delay);
  edges_of_receiver_.emplace_back();
  receivers_of_destination_[static_cast<std::size_t>(destination)].push_back(index);
  return index;
}

EdgeIndex Topology::add_edge(NodeIndex transmitter, NodeIndex receiver, Delay delay) {
  if (transmitter < 0 || transmitter >= num_transmitters()) {
    throw std::out_of_range("bad transmitter index");
  }
  if (receiver < 0 || receiver >= num_receivers()) throw std::out_of_range("bad receiver index");
  if (delay < 1) throw std::invalid_argument("reconfigurable edge delay must be >= 1");
  pair_cache_ready_ = false;
  const auto index = static_cast<EdgeIndex>(edges_.size());
  edges_.push_back(ReconfigEdge{transmitter, receiver, delay});
  edges_of_transmitter_[static_cast<std::size_t>(transmitter)].push_back(index);
  edges_of_receiver_[static_cast<std::size_t>(receiver)].push_back(index);
  return index;
}

void Topology::add_fixed_link(NodeIndex source, NodeIndex destination, Delay delay) {
  if (source < 0 || source >= num_sources_) throw std::out_of_range("bad source index");
  if (destination < 0 || destination >= num_destinations_) {
    throw std::out_of_range("bad destination index");
  }
  if (delay < 1) throw std::invalid_argument("fixed link delay must be >= 1");
  pair_cache_ready_ = false;
  for (auto& link : fixed_links_) {
    if (link.source == source && link.destination == destination) {
      link.delay = std::min(link.delay, delay);
      return;
    }
  }
  fixed_links_.push_back(FixedLink{source, destination, delay});
}

Delay Topology::total_edge_delay(EdgeIndex e) const {
  const ReconfigEdge& edge_ref = edge(e);
  return transmitter_attach_delay_.at(edge_ref.transmitter) + edge_ref.delay +
         receiver_attach_delay_.at(edge_ref.receiver);
}

void Topology::build_pair_cache() const {
  const auto pairs = static_cast<std::size_t>(num_sources_) *
                     static_cast<std::size_t>(num_destinations_);
  pair_offsets_.assign(pairs + 1, 0);
  const auto pair_of = [this](NodeIndex s, EdgeIndex e) {
    const auto r = static_cast<std::size_t>(edges_[static_cast<std::size_t>(e)].receiver);
    return pair_index(s, receiver_destination_[r]);
  };
  for (NodeIndex s = 0; s < num_sources_; ++s) {
    for (NodeIndex t : transmitters_of_source_[static_cast<std::size_t>(s)]) {
      for (EdgeIndex e : edges_of_transmitter_[static_cast<std::size_t>(t)]) {
        ++pair_offsets_[pair_of(s, e) + 1];
      }
    }
  }
  for (std::size_t p = 1; p < pair_offsets_.size(); ++p) pair_offsets_[p] += pair_offsets_[p - 1];
  pair_edges_.resize(edges_.size());
  std::vector<std::int32_t> cursor(pair_offsets_.begin(), pair_offsets_.end() - 1);
  for (NodeIndex s = 0; s < num_sources_; ++s) {
    for (NodeIndex t : transmitters_of_source_[static_cast<std::size_t>(s)]) {
      for (EdgeIndex e : edges_of_transmitter_[static_cast<std::size_t>(t)]) {
        pair_edges_[static_cast<std::size_t>(cursor[pair_of(s, e)]++)] = e;
      }
    }
  }
  pair_fixed_delay_.assign(pairs, 0);
  for (const FixedLink& link : fixed_links_) {
    pair_fixed_delay_[pair_index(link.source, link.destination)] = link.delay;
  }
  pair_cache_ready_ = true;
}

std::span<const EdgeIndex> Topology::pair_edges(NodeIndex source,
                                                NodeIndex destination) const {
  if (source < 0 || source >= num_sources_) {
    throw std::out_of_range("pair_edges: bad source index");
  }
  // No receiver maps to a destination out of range.
  if (destination < 0 || destination >= num_destinations_) return {};
  if (!pair_cache_ready_) build_pair_cache();
  const std::size_t p = pair_index(source, destination);
  const EdgeIndex* base = pair_edges_.data();
  return {base + pair_offsets_[p], base + pair_offsets_[p + 1]};
}

std::optional<Delay> Topology::fixed_link_delay(NodeIndex source,
                                                NodeIndex destination) const {
  if (source < 0 || source >= num_sources_ || destination < 0 ||
      destination >= num_destinations_) {
    return std::nullopt;
  }
  if (!pair_cache_ready_) build_pair_cache();
  const Delay delay = pair_fixed_delay_[pair_index(source, destination)];
  if (delay == 0) return std::nullopt;
  return delay;
}

bool Topology::routable(NodeIndex source, NodeIndex destination) const {
  return fixed_link_delay(source, destination).has_value() ||
         !pair_edges(source, destination).empty();
}

std::string Topology::validate() const {
  std::ostringstream error;
  for (std::size_t t = 0; t < transmitter_source_.size(); ++t) {
    if (transmitter_source_[t] < 0 || transmitter_source_[t] >= num_sources_) {
      error << "transmitter " << t << " attached to invalid source";
      return error.str();
    }
  }
  for (std::size_t r = 0; r < receiver_destination_.size(); ++r) {
    if (receiver_destination_[r] < 0 || receiver_destination_[r] >= num_destinations_) {
      error << "receiver " << r << " attached to invalid destination";
      return error.str();
    }
  }
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    const auto& edge_ref = edges_[e];
    if (edge_ref.transmitter < 0 || edge_ref.transmitter >= num_transmitters() ||
        edge_ref.receiver < 0 || edge_ref.receiver >= num_receivers()) {
      error << "edge " << e << " has invalid endpoints";
      return error.str();
    }
    if (edge_ref.delay < 1) {
      error << "edge " << e << " has delay < 1";
      return error.str();
    }
  }
  for (const auto& link : fixed_links_) {
    if (link.source < 0 || link.source >= num_sources_ || link.destination < 0 ||
        link.destination >= num_destinations_) {
      error << "fixed link has invalid endpoints";
      return error.str();
    }
    if (link.delay < 1) {
      error << "fixed link has delay < 1";
      return error.str();
    }
  }
  return {};
}

}  // namespace rdcn

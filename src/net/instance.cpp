#include "net/instance.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace rdcn {

Instance::Instance(Topology topology, std::vector<Packet> packets)
    : topology_(std::move(topology)), packets_(std::move(packets)) {
  for (std::size_t i = 0; i < packets_.size(); ++i) {
    packets_[i].id = static_cast<PacketIndex>(i);
  }
}

Instance::Instance(const Instance& other)
    : topology_(other.topology_),
      packets_(other.packets_),
      validated_(other.validated_.load()) {}

Instance& Instance::operator=(const Instance& other) {
  topology_ = other.topology_;
  packets_ = other.packets_;
  validated_.store(other.validated_.load());
  return *this;
}

Instance::Instance(Instance&& other) noexcept
    : topology_(std::move(other.topology_)),
      packets_(std::move(other.packets_)),
      validated_(other.validated_.load()) {}

Instance& Instance::operator=(Instance&& other) noexcept {
  topology_ = std::move(other.topology_);
  packets_ = std::move(other.packets_);
  validated_.store(other.validated_.load());
  return *this;
}

void Instance::add_packet(Time arrival, Weight weight, NodeIndex source,
                          NodeIndex destination) {
  Packet packet;
  packet.id = static_cast<PacketIndex>(packets_.size());
  packet.arrival = arrival;
  packet.weight = weight;
  packet.source = source;
  packet.destination = destination;
  if (!packets_.empty() && packets_.back().arrival > arrival) {
    throw std::invalid_argument("packets must be appended in arrival order");
  }
  validated_ = false;
  packets_.push_back(packet);
}

std::string Instance::validate() const {
  // Every Engine validates its instance, and sweeps re-run the same
  // instance under many policies, so a clean result is memoized (the only
  // mutator, add_packet, resets the memo).
  if (validated_) return {};
  std::string topo_error = topology_.validate();
  if (!topo_error.empty()) return topo_error;
  auto fail = [](std::size_t i, const std::string& what) {
    return "packet " + std::to_string(i) + " " + what;
  };
  for (std::size_t i = 0; i < packets_.size(); ++i) {
    const Packet& p = packets_[i];
    if (p.id != static_cast<PacketIndex>(i)) {
      return fail(i, "has wrong id " + std::to_string(p.id));
    }
    if (p.arrival < 1) return fail(i, "has arrival < 1");
    if (!(p.weight > 0)) return fail(i, "has non-positive weight");
    if (p.source < 0 || p.source >= topology_.num_sources() || p.destination < 0 ||
        p.destination >= topology_.num_destinations()) {
      return fail(i, "has out-of-range endpoints");
    }
    if (!topology_.routable(p.source, p.destination)) {
      return fail(i, "has no route from " + std::to_string(p.source) + " to " +
                         std::to_string(p.destination));
    }
    if (i > 0 && arrived_before(p, packets_[i - 1])) {
      return fail(i, "out of arrival order");
    }
  }
  validated_ = true;
  return {};
}

bool Instance::has_integer_weights() const noexcept {
  for (const Packet& p : packets_) {
    if (std::floor(p.weight) != p.weight) return false;
    if (std::abs(p.weight) > 1e15) return false;
  }
  return true;
}

double Instance::ideal_cost() const {
  double total = 0.0;
  for (const Packet& p : packets_) {
    double best = std::numeric_limits<double>::infinity();
    if (auto direct = topology_.fixed_link_delay(p.source, p.destination)) {
      best = static_cast<double>(*direct);
    }
    for (EdgeIndex e : topology_.pair_edges(p.source, p.destination)) {
      // Even alone in the system, a packet on edge e pays the staircase
      // (d(e)+1)/2 average over its d(e) chunks plus attach delays.
      const ReconfigEdge& edge = topology_.edge(e);
      const double lat = static_cast<double>(topology_.transmitter_attach_delay(edge.transmitter)) +
                         (static_cast<double>(edge.delay) + 1.0) / 2.0 +
                         static_cast<double>(topology_.receiver_attach_delay(edge.receiver));
      best = std::min(best, lat);
    }
    total += p.weight * best;
  }
  return total;
}

Time Instance::horizon_bound() const {
  Time max_arrival = 1;
  for (const Packet& p : packets_) max_arrival = std::max(max_arrival, p.arrival);
  Delay max_delay = 1;
  for (EdgeIndex e = 0; e < topology_.num_edges(); ++e) {
    max_delay = std::max(max_delay, topology_.total_edge_delay(e));
  }
  for (const FixedLink& link : topology_.fixed_links()) {
    max_delay = std::max(max_delay, link.delay);
  }
  return max_arrival + static_cast<Time>(packets_.size()) * max_delay + 1;
}

void Instance::save(std::ostream& out) const {
  out << "rdcn-instance v1\n";
  out << "sources " << topology_.num_sources() << "\n";
  out << "destinations " << topology_.num_destinations() << "\n";
  out << "transmitters " << topology_.num_transmitters() << "\n";
  for (NodeIndex t = 0; t < topology_.num_transmitters(); ++t) {
    out << topology_.source_of(t) << " " << topology_.transmitter_attach_delay(t) << "\n";
  }
  out << "receivers " << topology_.num_receivers() << "\n";
  for (NodeIndex r = 0; r < topology_.num_receivers(); ++r) {
    out << topology_.destination_of(r) << " " << topology_.receiver_attach_delay(r) << "\n";
  }
  out << "edges " << topology_.num_edges() << "\n";
  for (const auto& edge : topology_.edges()) {
    out << edge.transmitter << " " << edge.receiver << " " << edge.delay << "\n";
  }
  out << "fixed_links " << topology_.fixed_links().size() << "\n";
  for (const auto& link : topology_.fixed_links()) {
    out << link.source << " " << link.destination << " " << link.delay << "\n";
  }
  out << "packets " << packets_.size() << "\n";
  out.precision(17);
  for (const Packet& p : packets_) {
    out << p.arrival << " " << p.weight << " " << p.source << " " << p.destination << "\n";
  }
}

Instance Instance::load(std::istream& in) {
  // A count line "keyword N", with N in [0, limit].
  auto expect = [&in](const std::string& keyword, std::int64_t limit) -> std::int64_t {
    std::string word;
    std::int64_t value = 0;
    if (!(in >> word >> value) || word != keyword) {
      throw std::runtime_error("instance parse error near '" + keyword + "'");
    }
    if (value < 0 || value > limit) {
      throw std::runtime_error("instance '" + keyword + "' count " + std::to_string(value) +
                               " outside [0, " + std::to_string(limit) + "]");
    }
    return value;
  };
  // Record i of section `what` carries a delay of at most kMaxDelay.
  auto check_delay = [](const char* what, std::int64_t i, Delay delay) {
    if (delay > kMaxDelay) {
      throw std::runtime_error("instance " + std::string(what) + " record " +
                               std::to_string(i) + ": delay " + std::to_string(delay) +
                               " above the limit " + std::to_string(kMaxDelay));
    }
  };
  std::string magic, version;
  if (!(in >> magic >> version) || magic != "rdcn-instance" || version != "v1") {
    throw std::runtime_error("not an rdcn-instance v1 stream");
  }

  Topology topology;
  topology.add_sources(static_cast<NodeIndex>(expect("sources", kMaxRacks)));
  topology.add_destinations(static_cast<NodeIndex>(expect("destinations", kMaxRacks)));

  const auto num_transmitters = expect("transmitters", kMaxPorts);
  for (std::int64_t i = 0; i < num_transmitters; ++i) {
    NodeIndex source = 0;
    Delay attach = 0;
    if (!(in >> source >> attach)) throw std::runtime_error("bad transmitter record");
    check_delay("transmitter", i, attach);
    topology.add_transmitter(source, attach);
  }
  const auto num_receivers = expect("receivers", kMaxPorts);
  for (std::int64_t i = 0; i < num_receivers; ++i) {
    NodeIndex destination = 0;
    Delay attach = 0;
    if (!(in >> destination >> attach)) throw std::runtime_error("bad receiver record");
    check_delay("receiver", i, attach);
    topology.add_receiver(destination, attach);
  }
  const auto num_edges = expect("edges", kMaxEdges);
  for (std::int64_t i = 0; i < num_edges; ++i) {
    NodeIndex t = 0, r = 0;
    Delay delay = 1;
    if (!(in >> t >> r >> delay)) throw std::runtime_error("bad edge record");
    check_delay("edge", i, delay);
    topology.add_edge(t, r, delay);
  }
  const auto num_links = expect("fixed_links", kMaxEdges);
  for (std::int64_t i = 0; i < num_links; ++i) {
    NodeIndex s = 0, d = 0;
    Delay delay = 1;
    if (!(in >> s >> d >> delay)) throw std::runtime_error("bad fixed link record");
    check_delay("fixed link", i, delay);
    topology.add_fixed_link(s, d, delay);
  }

  Instance instance(std::move(topology), {});
  const auto num_packets = expect("packets", kMaxPackets);
  for (std::int64_t i = 0; i < num_packets; ++i) {
    Time arrival = 1;
    Weight weight = 1.0;
    NodeIndex s = 0, d = 0;
    if (!(in >> arrival >> weight >> s >> d)) throw std::runtime_error("bad packet record");
    if (arrival > kMaxArrival) {
      throw std::runtime_error("instance packet record " + std::to_string(i) + ": arrival " +
                               std::to_string(arrival) + " above the limit " +
                               std::to_string(kMaxArrival));
    }
    instance.add_packet(arrival, weight, s, d);
  }
  return instance;
}

std::string Instance::to_string() const {
  std::ostringstream out;
  save(out);
  return out.str();
}

Instance Instance::from_string(const std::string& text) {
  std::istringstream in(text);
  return load(in);
}

}  // namespace rdcn

#pragma once

// An Instance bundles a topology with an online packet sequence and is the
// unit every scheduler, bound, and benchmark consumes. Includes a plain-text
// serialization so workloads can be recorded and replayed bit-exactly.

#include <atomic>
#include <iosfwd>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "net/topology.hpp"

namespace rdcn {

class Instance {
 public:
  Instance() = default;
  Instance(Topology topology, std::vector<Packet> packets);

  // Spelled out because the validation memo is atomic (not copyable);
  // copies carry the same data, so they inherit the flag.
  Instance(const Instance& other);
  Instance& operator=(const Instance& other);
  Instance(Instance&& other) noexcept;
  Instance& operator=(Instance&& other) noexcept;

  const Topology& topology() const noexcept { return topology_; }
  const std::vector<Packet>& packets() const noexcept { return packets_; }
  std::size_t num_packets() const noexcept { return packets_.size(); }

  /// Appends a packet (assigning its sequence id) and keeps arrival order.
  void add_packet(Time arrival, Weight weight, NodeIndex source, NodeIndex destination);

  /// Validates topology invariants, packet ranges, routability and that the
  /// sequence is sorted by (arrival, id). Returns an error string or empty.
  std::string validate() const;

  /// True if every packet weight is integral (enables exact Rational audits).
  bool has_integer_weights() const noexcept;

  /// Sum over packets of the best-case weighted latency (min over routes of
  /// w_p * path delay); a trivial lower bound on any schedule's cost.
  double ideal_cost() const;

  /// A safe horizon: by the argument in Section IV-A, all work finishes by
  /// max arrival + |Π| * max total edge delay under any reasonable schedule.
  Time horizon_bound() const;

  // --- serialization ------------------------------------------------------

  /// What load() accepts from instance text, checked before any count is
  /// narrowed or sizes anything: each count lies in [0, its limit], each
  /// delay (edge, fixed link, attach) is at most kMaxDelay and each packet
  /// arrival at most kMaxArrival. Larger values are refused with an error
  /// naming the record. The rack limit bounds the per-pair tables (sources
  /// x destinations entries); the delay limit bounds one packet's chunks
  /// and its transmit-step log; the arrival limit keeps horizon_bound()
  /// and the step guard derived from it far from overflow.
  static constexpr std::int64_t kMaxRacks = 1024;                   ///< sources, destinations
  static constexpr std::int64_t kMaxPorts = 1 << 16;                ///< transmitters, receivers
  static constexpr std::int64_t kMaxEdges = 1 << 20;                ///< edges, fixed_links
  static constexpr std::int64_t kMaxPackets = 1 << 24;              ///< packets
  static constexpr std::int64_t kMaxDelay = 1 << 16;                ///< any one delay
  static constexpr std::int64_t kMaxArrival = std::int64_t{1} << 40;  ///< any one arrival

  void save(std::ostream& out) const;
  /// Parses save()'s format; throws std::runtime_error on malformed text
  /// or a value past the limits above.
  static Instance load(std::istream& in);
  std::string to_string() const;
  static Instance from_string(const std::string& text);

 private:
  Topology topology_;
  std::vector<Packet> packets_;
  /// Memo for validate(): true once a full validation passed; reset by
  /// add_packet. Atomic because distinct engines may validate one shared
  /// const Instance from pool threads concurrently.
  mutable std::atomic<bool> validated_{false};
};

}  // namespace rdcn

#include "traffic/source.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "match/hopcroft_karp.hpp"
#include "util/rng.hpp"

namespace rdcn {

namespace {

/// Shared core of the generative sources: a per-step arrival count (drawn
/// by the subclass) fans out into packets whose endpoints and weights come
/// from the workload samplers. The rng call order per packet (pair draw,
/// then weight draw) matches generate_workload, so a Poisson source with
/// the same rate reproduces the batch generator's sequence.
class GenerativeSource : public TrafficSource {
 public:
  GenerativeSource(const Topology& topology, const TrafficConfig& config)
      : rng_(config.shape.seed),
        sampler_(topology, config.shape, rng_),
        shape_(config.shape),
        rate_(calibrate_rate(topology, config)) {}

  double rate() const noexcept final { return rate_; }

  std::optional<Packet> next() final {
    while (left_in_step_ == 0) {
      ++step_;
      left_in_step_ = draw_count(rng_);
    }
    --left_in_step_;
    const auto [source, destination] = sampler_.sample(rng_);
    Packet packet;
    packet.id = next_id_++;
    packet.arrival = step_;
    packet.weight = sample_weight(shape_, rng_);
    packet.source = source;
    packet.destination = destination;
    return packet;
  }

 protected:
  virtual std::uint64_t draw_count(Rng& rng) = 0;

 private:
  Rng rng_;
  PairSampler sampler_;
  WorkloadConfig shape_;
  double rate_;
  Time step_ = 0;  ///< arrivals start at step 1
  std::uint64_t left_in_step_ = 0;
  PacketIndex next_id_ = 0;
};

class PoissonSource final : public GenerativeSource {
 public:
  using GenerativeSource::GenerativeSource;

 private:
  std::uint64_t draw_count(Rng& rng) override { return rng.next_poisson(rate()); }
};

/// MMPP-style ON/OFF source: a 2-state Markov chain modulates the Poisson
/// rate between lambda / pi_on (ON) and 0 (OFF); the stationary mix keeps
/// the long-run offered load at the calibrated rate.
class OnOffSource final : public GenerativeSource {
 public:
  OnOffSource(const Topology& topology, const TrafficConfig& config)
      : GenerativeSource(topology, config),
        on_stay_(config.on_stay),
        off_stay_(config.off_stay) {
    if (on_stay_ < 0.0 || on_stay_ >= 1.0 || off_stay_ < 0.0 || off_stay_ >= 1.0) {
      throw std::invalid_argument("on_stay / off_stay must be in [0, 1)");
    }
    pi_on_ = (1.0 - off_stay_) / ((1.0 - on_stay_) + (1.0 - off_stay_));
  }

 private:
  std::uint64_t draw_count(Rng& rng) override {
    if (!state_drawn_) {
      // Start the chain in its stationary distribution.
      on_ = rng.next_bool(pi_on_);
      state_drawn_ = true;
    } else {
      on_ = rng.next_bool(on_ ? on_stay_ : 1.0 - off_stay_);
    }
    return on_ ? rng.next_poisson(rate() / pi_on_) : 0;
  }

  double on_stay_;
  double off_stay_;
  double pi_on_ = 1.0;
  bool on_ = true;
  bool state_drawn_ = false;
};

class TraceSource final : public TrafficSource {
 public:
  explicit TraceSource(std::vector<Packet> packets) : packets_(std::move(packets)) {}

  std::optional<Packet> next() override {
    if (index_ >= packets_.size()) return std::nullopt;
    return packets_[index_++];
  }

 private:
  std::vector<Packet> packets_;
  std::size_t index_ = 0;
};

}  // namespace

double service_capacity(const Topology& topology, int speedup_rounds) {
  if (speedup_rounds < 1) throw std::invalid_argument("speedup_rounds must be >= 1");
  const auto ports = std::min(topology.num_transmitters(), topology.num_receivers());
  return static_cast<double>(ports) * static_cast<double>(speedup_rounds);
}

double matching_capacity(const Topology& topology, int speedup_rounds) {
  if (speedup_rounds < 1) throw std::invalid_argument("speedup_rounds must be >= 1");
  std::vector<std::vector<std::int32_t>> adjacency(
      static_cast<std::size_t>(topology.num_transmitters()));
  for (const ReconfigEdge& edge : topology.edges()) {
    adjacency[static_cast<std::size_t>(edge.transmitter)].push_back(edge.receiver);
  }
  const std::size_t matched = matching_size(
      hopcroft_karp(adjacency, static_cast<std::size_t>(topology.num_receivers())));
  return static_cast<double>(matched) * static_cast<double>(speedup_rounds);
}

std::int64_t cheapest_demand(const Topology& topology, NodeIndex source,
                             NodeIndex destination) {
  std::int64_t best = 0;
  for (EdgeIndex e : topology.pair_edges(source, destination)) {
    const Delay delay = topology.edge(e).delay;
    if (best == 0 || delay < best) best = delay;
  }
  return best;
}

DemandEstimate estimate_service_demand(const Topology& topology,
                                       const WorkloadConfig& shape) {
  constexpr std::size_t kDraws = 4096;
  // Fork the seed so the estimate never perturbs the arrival stream drawn
  // from the same WorkloadConfig.
  Rng rng(Rng(shape.seed).fork(0x9a1fULL).next_u64());
  const PairSampler sampler(topology, shape, rng);
  double total = 0.0;
  std::size_t zero = 0;
  for (std::size_t i = 0; i < kDraws; ++i) {
    const auto [source, destination] = sampler.sample(rng);
    const std::int64_t demand = cheapest_demand(topology, source, destination);
    if (demand == 0) ++zero;
    total += static_cast<double>(demand);
  }
  DemandEstimate estimate;
  estimate.mean_demand = total / static_cast<double>(kDraws);
  estimate.zero_fraction = static_cast<double>(zero) / static_cast<double>(kDraws);
  return estimate;
}

double calibrate_rate(const Topology& topology, const TrafficConfig& config) {
  if (config.rho <= 0.0) throw std::invalid_argument("rho must be > 0");
  if (config.max_zero_demand_fraction < 0.0 || config.max_zero_demand_fraction > 1.0) {
    throw std::invalid_argument("max_zero_demand_fraction must be in [0, 1]");
  }
  const DemandEstimate demand = estimate_service_demand(topology, config.shape);
  if (demand.mean_demand <= 0.0) {
    throw std::invalid_argument(
        "pair distribution never touches the reconfigurable layer; rho is undefined");
  }
  if (demand.zero_fraction > config.max_zero_demand_fraction) {
    throw std::invalid_argument(
        "rho calibration rejected: " + std::to_string(demand.zero_fraction * 100.0) +
        "% of sampled pairs has no reconfigurable route (limit " +
        std::to_string(config.max_zero_demand_fraction * 100.0) +
        "%); rho would describe a minority of the offered traffic -- raise "
        "TrafficConfig::max_zero_demand_fraction to opt in");
  }
  const double capacity = config.capacity_model == CapacityModel::MaxMatching
                              ? matching_capacity(topology, config.speedup_rounds)
                              : service_capacity(topology, config.speedup_rounds);
  if (capacity <= 0.0) {
    throw std::invalid_argument(
        "reconfigurable layer has zero service capacity; rho is undefined");
  }
  return config.rho * capacity / demand.mean_demand;
}

const char* to_string(ArrivalProcess process) {
  if (process == ArrivalProcess::Trace) return "trace";
  return name_of(kArrivalProcessNames, process);
}

std::unique_ptr<TrafficSource> make_source(const Topology& topology,
                                           const TrafficConfig& config) {
  switch (config.process) {
    case ArrivalProcess::Poisson:
      return std::make_unique<PoissonSource>(topology, config);
    case ArrivalProcess::OnOff:
      return std::make_unique<OnOffSource>(topology, config);
    case ArrivalProcess::Trace:
      throw std::invalid_argument("trace replay needs make_trace_source");
  }
  throw std::logic_error("unknown ArrivalProcess");
}

std::unique_ptr<TrafficSource> make_trace_source(std::vector<Packet> packets) {
  return std::make_unique<TraceSource>(std::move(packets));
}

std::vector<Packet> record_arrivals(TrafficSource& source, std::size_t count) {
  std::vector<Packet> packets;
  packets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::optional<Packet> packet = source.next();
    if (!packet) break;
    packets.push_back(*packet);
  }
  return packets;
}

}  // namespace rdcn

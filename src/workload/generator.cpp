#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

namespace rdcn {

namespace {

/// All routable ordered (source, destination) pairs with source != dest
/// (self-pairs never occur in rack-to-rack traffic).
std::vector<std::pair<NodeIndex, NodeIndex>> routable_pairs(const Topology& topology) {
  std::vector<std::pair<NodeIndex, NodeIndex>> pairs;
  for (NodeIndex s = 0; s < topology.num_sources(); ++s) {
    for (NodeIndex d = 0; d < topology.num_destinations(); ++d) {
      if (s == d && topology.num_sources() == topology.num_destinations()) continue;
      if (topology.routable(s, d)) pairs.emplace_back(s, d);
    }
  }
  if (pairs.empty()) throw std::invalid_argument("topology has no routable pairs");
  return pairs;
}

}  // namespace

PairSampler::PairSampler(const Topology& topology, const WorkloadConfig& config, Rng& rng)
    : pairs_(routable_pairs(topology)), config_(config) {
  switch (config.skew) {
      case PairSkew::Uniform:
        break;
      case PairSkew::Zipf: {
        // Rank pairs in a random order, then sample ranks Zipf-style; this
        // yields the few-hot-pairs-carry-most-traffic shape of [17], [19].
        rng.shuffle(pairs_);
        zipf_ = std::make_unique<ZipfSampler>(pairs_.size(), config.zipf_exponent);
        break;
      }
      case PairSkew::Hotspot:
        hot_pair_ = pairs_[rng.next_below(pairs_.size())];
        break;
      case PairSkew::Permutation: {
        // dst(src) = random permutation restricted to routable pairs: for
        // each source pick one fixed destination.
        for (NodeIndex s = 0; s < topology.num_sources(); ++s) {
          std::vector<NodeIndex> dests;
          for (const auto& [ps, pd] : pairs_) {
            if (ps == s) dests.push_back(pd);
          }
          if (!dests.empty()) {
            permutation_.emplace_back(s, dests[rng.next_below(dests.size())]);
          }
        }
        if (permutation_.empty()) throw std::invalid_argument("no permutation pairs");
        break;
      }
      case PairSkew::Incast: {
        // Choose the sink as a destination that the most sources can reach.
        std::vector<std::size_t> reach(
            static_cast<std::size_t>(topology.num_destinations()), 0);
        for (const auto& [ps, pd] : pairs_) ++reach[static_cast<std::size_t>(pd)];
        const auto best = std::max_element(reach.begin(), reach.end());
        sink_ = static_cast<NodeIndex>(best - reach.begin());
        for (const auto& pair : pairs_) {
          if (pair.second == sink_) incast_pairs_.push_back(pair);
        }
        break;
      }
  }
}

std::pair<NodeIndex, NodeIndex> PairSampler::sample(Rng& rng) const {
  switch (config_.skew) {
    case PairSkew::Uniform:
      return pairs_[rng.next_below(pairs_.size())];
    case PairSkew::Zipf:
      return pairs_[zipf_->sample(rng)];
    case PairSkew::Hotspot:
      if (rng.next_bool(config_.hotspot_fraction)) return hot_pair_;
      return pairs_[rng.next_below(pairs_.size())];
    case PairSkew::Permutation:
      return permutation_[rng.next_below(permutation_.size())];
    case PairSkew::Incast:
      return incast_pairs_[rng.next_below(incast_pairs_.size())];
  }
  return pairs_.front();
}

double sample_weight(const WorkloadConfig& config, Rng& rng) {
  switch (config.weights) {
    case WeightDist::Unit:
      return 1.0;
    case WeightDist::UniformInt:
      return static_cast<double>(rng.next_int(1, config.weight_max));
    case WeightDist::Pareto: {
      const double value = rng.next_pareto(1.0, config.pareto_shape);
      return std::min(std::ceil(value), 1e6);  // integral, clipped tail
    }
    case WeightDist::Bimodal:
      return rng.next_bool(config.elephant_fraction)
                 ? static_cast<double>(config.weight_max)
                 : 1.0;
  }
  return 1.0;
}

Instance generate_workload(const Topology& topology, const WorkloadConfig& config) {
  Rng rng(config.seed);
  const PairSampler sampler(topology, config, rng);

  Instance instance(topology, {});
  Time step = 1;
  std::size_t generated = 0;
  while (generated < config.num_packets) {
    double rate = config.arrival_rate;
    if (config.bursty) {
      if (rng.next_bool(config.burst_off_prob)) {
        rate = 0.0;
      } else {
        rate = config.arrival_rate / (1.0 - config.burst_off_prob);
      }
    }
    const std::uint64_t arrivals =
        rate > 0 ? rng.next_poisson(rate) : 0;
    for (std::uint64_t k = 0; k < arrivals && generated < config.num_packets; ++k) {
      const auto [source, destination] = sampler.sample(rng);
      instance.add_packet(step, sample_weight(config, rng), source, destination);
      ++generated;
    }
    ++step;
  }
  return instance;
}

void append_flow(Instance& instance, Time arrival, double total_weight, std::int64_t size,
                 NodeIndex source, NodeIndex destination) {
  if (size < 1) throw std::invalid_argument("flow size must be >= 1");
  const double unit_weight = total_weight / static_cast<double>(size);
  for (std::int64_t i = 0; i < size; ++i) {
    instance.add_packet(arrival, unit_weight, source, destination);
  }
}

const char* to_string(PairSkew skew) { return name_of(kPairSkewNames, skew); }

const char* to_string(WeightDist weights) { return name_of(kWeightDistNames, weights); }

}  // namespace rdcn

#pragma once

// Synthetic workload generators. The paper motivates demand-aware
// scheduling with the skewed, bursty structure of measured datacenter
// traffic ([17]-[19]); these generators expose exactly those knobs:
// arrival burstiness (Poisson vs ON/OFF-modulated), rack-pair skew
// (uniform / Zipf / hotspot / permutation / incast), and weight
// distributions (unit / uniform-integer / Pareto-derived / bimodal
// "elephant-vs-mouse" priorities).

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/instance.hpp"
#include "util/enum_names.hpp"
#include "util/rng.hpp"

namespace rdcn {

enum class PairSkew {
  Uniform,      ///< (src, dst) uniform over routable pairs
  Zipf,         ///< rack popularity Zipf-distributed on both sides
  Hotspot,      ///< a fraction of traffic pinned to one hot pair
  Permutation,  ///< dst = fixed random permutation of src
  Incast,       ///< all destinations funnel into one rack
};

enum class WeightDist {
  Unit,        ///< all weights 1
  UniformInt,  ///< uniform integer in [1, weight_max] (exact-audit friendly)
  Pareto,      ///< heavy-tailed, rounded up to an integer
  Bimodal,     ///< mice weight 1, elephants weight weight_max
};

struct WorkloadConfig {
  std::size_t num_packets = 100;
  /// Mean packets per step (Poisson); smaller = lighter load.
  double arrival_rate = 2.0;
  PairSkew skew = PairSkew::Uniform;
  double zipf_exponent = 1.2;
  double hotspot_fraction = 0.5;  ///< Hotspot: share sent on the hot pair
  WeightDist weights = WeightDist::UniformInt;
  std::int64_t weight_max = 10;
  double pareto_shape = 1.3;
  double elephant_fraction = 0.1;  ///< Bimodal: share of heavy packets
  /// ON/OFF burst modulation: with probability burst_off_prob a step
  /// contributes no arrivals; ON steps are proportionally hotter so the
  /// mean rate is preserved.
  bool bursty = false;
  double burst_off_prob = 0.7;
  std::uint64_t seed = 1;
};

/// Samples (source, destination) endpoint pairs over a topology's routable
/// rack pairs according to config.skew. Construction draws the skew's
/// one-time randomness (Zipf rank order, hot pair, permutation, incast
/// sink) from `rng`; sample() then draws per packet. generate_workload and
/// the streaming traffic sources (traffic/) share this class, so batch and
/// open-loop traffic see identical endpoint distributions.
class PairSampler {
 public:
  PairSampler(const Topology& topology, const WorkloadConfig& config, Rng& rng);

  std::pair<NodeIndex, NodeIndex> sample(Rng& rng) const;

  std::size_t num_pairs() const noexcept { return pairs_.size(); }

 private:
  std::vector<std::pair<NodeIndex, NodeIndex>> pairs_;
  WorkloadConfig config_;  ///< copy: only the skew knobs are consulted
  std::unique_ptr<ZipfSampler> zipf_;
  std::pair<NodeIndex, NodeIndex> hot_pair_{};
  std::vector<std::pair<NodeIndex, NodeIndex>> permutation_;
  NodeIndex sink_ = 0;
  std::vector<std::pair<NodeIndex, NodeIndex>> incast_pairs_;
};

/// One weight draw from config.weights (shared by batch and streaming).
double sample_weight(const WorkloadConfig& config, Rng& rng);

/// Generates a packet sequence over the topology's routable rack pairs.
/// Deterministic in (topology, config): all randomness flows from
/// config.seed.
Instance generate_workload(const Topology& topology, const WorkloadConfig& config);

/// The names suite files, rdcn_cli flags and benchmark tables use.
inline constexpr EnumName<PairSkew> kPairSkewNames[] = {
    {PairSkew::Uniform, "uniform"},
    {PairSkew::Zipf, "zipf"},
    {PairSkew::Hotspot, "hotspot"},
    {PairSkew::Permutation, "permutation"},
    {PairSkew::Incast, "incast"},
};
inline constexpr EnumName<WeightDist> kWeightDistNames[] = {
    {WeightDist::Unit, "unit"},
    {WeightDist::UniformInt, "uniform-int"},
    {WeightDist::Pareto, "pareto"},
    {WeightDist::Bimodal, "bimodal"},
};

const char* to_string(PairSkew skew);
const char* to_string(WeightDist weights);

}  // namespace rdcn

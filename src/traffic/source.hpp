#pragma once

// Open-loop arrival processes for streaming (steady-state) evaluation.
//
// The batch workload generator (workload/) materializes a finite packet
// set; a TrafficSource instead produces packets online, one at a time,
// with arrivals driven by a target utilization rho of the reconfigurable
// layer. Endpoint pairs and weights reuse workload/'s PairSampler /
// sample_weight, so open-loop traffic has the identical skew and weight
// distributions as the batch experiments.
//
// The rho convention: a packet for pair (s, d) demands min_{e in E_p} d(e)
// chunks -- its cheapest reconfigurable route; pairs served only by the
// fixed layer demand 0. The layer moves at most capacity = min(|T|, |R|)
// chunks per step (a perfect matching) at unit speed. The arrival rate is
// calibrated as
//
//   lambda = rho * capacity * speedup / E[demand],
//
// with E[demand] estimated by a deterministic Monte-Carlo over the
// configured pair distribution. rho is therefore offered chunk load
// relative to aggregate port capacity; skewed traffic saturates the hot
// ports well below rho = 1, which is exactly what the latency-vs-load
// curves probe.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "net/topology.hpp"
#include "util/enum_names.hpp"
#include "workload/generator.hpp"

namespace rdcn {

enum class ArrivalProcess {
  Poisson,  ///< per-step arrival counts ~ Poisson(lambda)
  OnOff,    ///< MMPP-style 2-state Markov modulation of the Poisson rate
  Trace,    ///< replay of a recorded packet sequence
};

/// The processes a config names (suite "process", rdcn_cli --source).
/// Trace is never named: replay sets it up from a recorded trace.
inline constexpr EnumName<ArrivalProcess> kArrivalProcessNames[] = {
    {ArrivalProcess::Poisson, "poisson"},
    {ArrivalProcess::OnOff, "onoff"},
};

/// The table's name, or "trace" for Trace.
const char* to_string(ArrivalProcess process);

/// Which notion of "chunks per step the layer can move" calibration uses.
enum class CapacityModel {
  /// min(|T|, |R|): exact for dense fabrics (crossbars, full two-tier)
  /// where every port can be matched simultaneously.
  Ports,
  /// Size of a maximum matching of the reconfigurable layer: the true
  /// ceiling for sparse wirings (rotor matching subsets, low-degree
  /// expanders) that leave some ports dark -- Ports overcounts there and
  /// a nominal rho of 1.0 would under-drive the fabric.
  MaxMatching,
};

struct TrafficConfig {
  ArrivalProcess process = ArrivalProcess::Poisson;
  /// Target utilization of the reconfigurable layer (see header comment).
  double rho = 0.8;
  CapacityModel capacity_model = CapacityModel::Ports;
  /// Endpoint-pair skew and weight distribution knobs; num_packets,
  /// arrival_rate and the bursty fields are ignored (arrivals come from
  /// `process` and `rho`), the seed is shared with the arrival draws.
  WorkloadConfig shape{};
  /// OnOff: per-step probabilities of staying in the ON / OFF state. The
  /// ON-state rate is lambda / pi_on (pi_on = stationary ON share), so the
  /// long-run offered load still meets rho.
  double on_stay = 0.9;
  double off_stay = 0.7;
  /// Engine speedup the run will use (scales the calibrated rate).
  int speedup_rounds = 1;
  /// Calibration guard: reject (throw) when more than this fraction of
  /// sampled pairs has no reconfigurable route (demand 0, fixed-layer
  /// only). Beyond it, rho silently describes a shrinking minority of the
  /// offered traffic; runs that want such shapes must opt in explicitly.
  double max_zero_demand_fraction = 0.5;
};

/// An online packet source: ids sequential from 0, arrivals nondecreasing
/// integers >= 1. Generative sources (Poisson, OnOff) never exhaust;
/// trace sources return nullopt at end of trace. Deterministic: the same
/// construction parameters yield the identical sequence.
class TrafficSource {
 public:
  virtual ~TrafficSource() = default;
  virtual std::optional<Packet> next() = 0;
  /// The arrival rate (packets/step) the source calibrated from its
  /// TrafficConfig when it was built -- calibrate_rate's value, so callers
  /// read it here instead of calibrating the regime again. 0 for sources
  /// without one (trace replay).
  virtual double rate() const noexcept { return 0.0; }
};

/// Chunks per step the reconfigurable layer can move at most:
/// min(|T|, |R|) * speedup_rounds (the CapacityModel::Ports bound).
double service_capacity(const Topology& topology, int speedup_rounds = 1);

/// The CapacityModel::MaxMatching bound: maximum-matching size of the
/// reconfigurable layer (Hopcroft-Karp) times speedup_rounds. Equals
/// service_capacity on dense fabrics; strictly smaller when the wiring
/// leaves ports dark.
double matching_capacity(const Topology& topology, int speedup_rounds = 1);

/// Cheapest-route demand of a (source, destination) pair in chunks:
/// min_{e in E_p} d(e); 0 when the pair has no reconfigurable route.
std::int64_t cheapest_demand(const Topology& topology, NodeIndex source,
                             NodeIndex destination);

/// Demand profile of the pair distribution, estimated by a deterministic
/// Monte-Carlo (seeded from shape.seed) of 4096 pairs: E[demand] over all
/// draws plus the fraction of draws with no reconfigurable route at all
/// (demand 0); the latter is invisible in the mean alone --
/// cheapest_demand cannot distinguish "cheap route" from "no route" -- and
/// silently dilutes any rho computed from it.
struct DemandEstimate {
  double mean_demand = 0.0;    ///< over all draws (zero-demand included)
  double zero_fraction = 0.0;  ///< share of draws with demand == 0
};
DemandEstimate estimate_service_demand(const Topology& topology,
                                       const WorkloadConfig& shape);

/// Packets per step targeting utilization config.rho (see header comment).
/// Throws when the pair distribution never touches the reconfigurable
/// layer (E[demand] == 0) or when more than
/// config.max_zero_demand_fraction of the sampled pairs has no
/// reconfigurable route.
double calibrate_rate(const Topology& topology, const TrafficConfig& config);

/// Builds a generative source (Poisson or OnOff) over the topology; it
/// calibrates its rate once, here, and reports it through rate().
/// config.process == Trace is invalid here; use make_trace_source.
std::unique_ptr<TrafficSource> make_source(const Topology& topology,
                                           const TrafficConfig& config);

/// Replay of a recorded packet sequence (for example Instance::packets()):
/// packets are re-issued verbatim with their recorded ids and arrivals.
std::unique_ptr<TrafficSource> make_trace_source(std::vector<Packet> packets);

/// Pulls the first `count` packets off a source (trace capture; pairs with
/// make_trace_source / Instance{topology, packets} for bit-exact replay).
std::vector<Packet> record_arrivals(TrafficSource& source, std::size_t count);

}  // namespace rdcn

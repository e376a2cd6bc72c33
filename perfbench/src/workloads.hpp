#pragma once

// The benchmark's named workloads. Each is a fixed amount of simulated work
// (a list of units: one batch instance or one stream repetition each),
// generated from the run's --seed alone and driven through the library's
// public entry points: ScenarioRunner for batch, StreamRunner for streams.

#include <cstdint>
#include <string>
#include <vector>

#include "run/scenario.hpp"
#include "run/stream.hpp"

namespace perfbench {

enum class Mode { Batch, Stream };

struct Workload {
  std::string name;
  Mode mode = Mode::Batch;
  rdcn::ScenarioSpec scenario;  ///< Mode::Batch
  rdcn::StreamSpec stream;      ///< Mode::Stream
  /// Registry policies, run in this order; each runs every unit seed.
  std::vector<std::string> policies;
  std::size_t seeds_per_policy = 1;
};

/// One simulated unit: a registry policy on one instance / repetition seed.
struct Unit {
  std::string policy;
  std::uint64_t seed = 0;
};

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name);

/// The workload's units for a run seed: consecutive unit seeds starting
/// at a base derived from `seed`, the same seeds for every policy.
std::vector<Unit> make_units(const Workload& workload, std::uint64_t seed);

/// A short variant of the workload for the audited-equivalence check: the
/// same fabric and traffic, fewer packets.
Workload short_variant(const Workload& workload);

}  // namespace perfbench

#pragma once

// Running one unit of a workload, untraced (through ScenarioRunner /
// StreamRunner) or traced (the benchmark's own drive over the same public
// calls, with every layer boundary inside a span), plus the simulated
// output both must agree on bit for bit.

#include <cstdint>
#include <string>

#include "tracer.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

/// What a unit simulated. Deterministic in (workload, unit): equal across
/// passes, across traced and untraced runs, and across audited runs.
struct SimOutput {
  std::uint64_t offered = 0;
  std::uint64_t served = 0;
  std::uint64_t dropped = 0;
  std::uint64_t requeued = 0;
  rdcn::Time steps = 0;
  bool truncated = false;
  double total_cost = 0.0;
  /// Completion - arrival of the measured packets (every packet in batch).
  rdcn::LatencyHistogram latency{5};

  std::uint64_t retired() const noexcept { return served + dropped; }
};

/// Empty when equal; otherwise names the first differing field.
std::string compare_outputs(const SimOutput& a, const SimOutput& b);

struct UnitRun {
  SimOutput out;
  double setup_cpu_s = 0.0;  ///< CPU before the unit's first simulated step
  double sim_cpu_s = 0.0;    ///< CPU of the simulation phase
  double wall_s = 0.0;       ///< traced units: wall clock of the whole unit
  std::size_t resident_peak = 0;  ///< traced units: Engine::peak_resident_slots
  std::string error;         ///< nonempty when a correctness check failed
};

struct UnitOptions {
  bool audit = false;
  std::uint64_t plant_select_ns = 0;  ///< self-test only: busy-wait per select
};

/// Runs a unit through the public entry point (ScenarioRunner::run_once /
/// StreamRunner::run_repetition) and checks its output. Exceptions are
/// caught into UnitRun::error.
UnitRun run_unit(const Workload& workload, const Unit& unit, const UnitOptions& options);

/// Runs the same unit with spans around every layer call (see tracer.hpp).
UnitRun run_unit_traced(const Workload& workload, const Unit& unit,
                        const UnitOptions& options, Tracer& tracer);

}  // namespace perfbench

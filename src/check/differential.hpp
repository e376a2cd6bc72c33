#pragma once

// Differential validation: cross-checks engine outcomes against the
// repo's independent oracles, so a disagreement is a proven bug rather
// than a flaky expectation. For one instance it verifies, per policy:
//
//  * the per-step invariant audit passes (EngineOptions::audit);
//  * every packet is delivered and the engine's incremental cost equals
//    the two first-principles recomputations of sim/metrics;
//  * a streamed replay of the same arrival sequence reproduces the batch
//    schedule bit-for-bit, per packet (completion, chunk steps, latency);
//  * no schedule beats the trivial lower bound, and -- for instances small
//    enough for opt/brute_force -- no schedule beats the exhaustive
//    optimum while the trivial bound stays below it;
//  * ALG's certificates hold: the charging scheme covers the cost within
//    alpha (floating point and, for integer weights, exact rational), the
//    halved dual witness is feasible, Lemma 1 balances, and the dual
//    witness bound respects weak duality against the LP optimum;
//  * the engine's incremental impact index agrees with its oracles at
//    every dispatch decision of an ALG replay: exactly (h_count, base,
//    JSQ edge load) and to reassociation tolerance (l_weight, delta)
//    against the naive scan of the edge queues at e's endpoints, and bit-
//    for-bit against a fresh canonical-shape aggregate rebuilt from those
//    queues per edge.
//
// Streaming specs get the outcome-level invariants (measurement window
// accounting, histogram/throughput consistency, truncation and
// zero-demand bookkeeping) plus the batch-vs-stream replay of a recorded
// arrival prefix. The fuzz driver (tools/rdcn_fuzz) sweeps random specs
// through these checks; check/minimize.hpp turns a failure into a minimal
// ctest reproducer.

#include <cstdint>
#include <string>
#include <vector>

#include "net/instance.hpp"
#include "run/stream.hpp"
#include "sim/engine.hpp"

namespace rdcn::check {

struct DiffOptions {
  /// Registry names to run; empty = every registered policy.
  std::vector<std::string> policies;
  /// Extra engine-option variants (speedup / capacity / reconfiguration
  /// delay / restricted migration) run under `variant_policies` with the
  /// audit and the batch-vs-stream replay, but without the bound
  /// cross-checks (the brute-force/trivial bounds assume the unit-speed
  /// analysis model).
  std::vector<EngineOptions> variants;
  /// Deterministic, starvation-free under every variant above; the
  /// demand-oblivious and randomized baselines can legitimately starve
  /// under a reconfiguration delay, which is behaviour, not a bug.
  std::vector<std::string> variant_policies = {"alg", "maxweight", "fifo"};
  bool check_stream_equivalence = true;
};

struct DiffReport {
  std::size_t checks = 0;                ///< individual cross-checks evaluated
  std::vector<std::string> violations;   ///< each one is a proven bug
  std::vector<std::string> skipped;      ///< spec rejections (not bugs)
  /// check_impact_index replays whose index served a query, by the
  /// representation it ended on: exact count lines, or the treaps after a
  /// fallback (sim/impact_index.hpp, EXACT SUMS).
  std::size_t index_exact = 0;
  std::size_t index_fell_back = 0;
  bool ok() const noexcept { return violations.empty(); }
  std::string to_string() const;         ///< violations joined for messages
};

/// Cross-checks every policy's batch run on the instance (see header).
DiffReport check_instance(const Instance& instance, const DiffOptions& options = {});

/// Cross-checks one streamed repetition of the spec per policy, plus the
/// batch-vs-stream replay of a recorded arrival prefix (for a staged spec,
/// the staged prefix under its mutation schedule). A spec whose rho
/// calibration is rejected (e.g. too many zero-demand pairs) lands in
/// `skipped`, not in `violations`.
DiffReport check_stream(const StreamSpec& spec, std::uint64_t rep_seed,
                        const DiffOptions& options = {});

/// Replays ALG's dispatch sequence on the instance with the incremental
/// impact index cross-validated against both oracles at every candidate
/// edge of every dispatch (see header). Violations land in `report`, and
/// the replay counts toward index_exact or index_fell_back; called by
/// check_instance/check_stream and directly by property tests.
void check_impact_index(const Instance& instance, DiffReport& report);

/// First `keep` packets of the instance (same topology) -- the workload
/// bisection step of the fuzz minimizer, exposed so emitted reproducers
/// can rebuild the minimized instance from (spec seed, prefix length).
Instance truncate_packets(const Instance& instance, std::size_t keep);

}  // namespace rdcn::check

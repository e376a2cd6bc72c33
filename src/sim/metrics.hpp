#pragma once

// Metric helpers over RunResults: recompute costs from first principles
// (used to cross-check the engine's incremental accounting), and summarize
// schedules for the benchmark tables.

#include <array>

#include "net/instance.hpp"
#include "sim/engine.hpp"
#include "sim/probe.hpp"

namespace rdcn {

/// Recomputes the total weighted fractional latency from the per-chunk
/// transmit steps / fixed routes alone (independent of the engine's
/// incremental accounting).
double recompute_cost(const Instance& instance, const RunResult& result);

/// Equivalent continuous-form accounting (Section II): every active
/// fraction of a packet pays its weight each step. Equals recompute_cost.
double recompute_cost_active_form(const Instance& instance, const RunResult& result);

/// True iff every packet completed and chunk counts match route delays.
bool all_delivered(const Instance& instance, const RunResult& result);

struct ScheduleSummary {
  double total_cost = 0.0;
  double mean_weighted_latency = 0.0;  ///< cost / num packets
  double max_latency = 0.0;            ///< max packet (completion - arrival)
  Time makespan = 0;
  double reconfig_fraction = 0.0;  ///< share of packets routed reconfigurably
};

ScheduleSummary summarize(const Instance& instance, const RunResult& result);

// --- streaming telemetry -----------------------------------------------

/// One fixed-length window of a streamed run's time series.
struct StreamWindow {
  Time start = 0;             ///< clock value of the window's first step
  Time steps = 0;             ///< steps observed (the last window may be short)
  std::uint64_t arrivals = 0; ///< packets injected during the window
  std::uint64_t served = 0;   ///< packets retired during the window
  double mean_backlog = 0.0;  ///< mean in-flight packets over the steps
  std::uint64_t peak_backlog = 0;
  /// Per-phase self time spent during this window's steps (Phase order;
  /// all-zero unless the engine runs with a probe and the driver passes it
  /// to on_step) -- latency-vs-load curves ship with a time breakdown.
  std::array<std::uint64_t, kNumPhases> phase_ns{};
};

/// Folds per-step observations of a streamed run into fixed-length
/// windows (throughput / backlog series): bounded memory regardless of
/// how many packets the run serves. Feed one on_step per engine step;
/// finish() flushes the trailing partial window.
class StreamTelemetry {
 public:
  explicit StreamTelemetry(Time window_steps);

  /// `probe`, when non-null, attributes the engine's per-phase time to
  /// windows: each flushed window stores the delta of the probe's
  /// cumulative phase_self_ns against the previous flush.
  void on_step(Time now, std::uint64_t arrivals, std::uint64_t served,
               std::size_t in_flight, const Probe* probe = nullptr);
  /// Folds retirements that happen between steps (stage-boundary mutations
  /// requeueing packets onto the fixed layer retire them inside the
  /// mutation, outside any step bracket) into the trailing window so the
  /// series served total matches the run's.
  void absorb_boundary(std::uint64_t served);
  /// Flushes the open partial window (idempotent) and returns the series.
  const std::vector<StreamWindow>& finish();

  const std::vector<StreamWindow>& windows() const noexcept { return windows_; }
  Time window_steps() const noexcept { return window_steps_; }

 private:
  void flush_window();

  Time window_steps_;
  StreamWindow current_{};
  double backlog_sum_ = 0.0;
  const Probe* probe_ = nullptr;  ///< last probe seen by on_step
  std::array<std::uint64_t, kNumPhases> phase_snapshot_{};
  std::vector<StreamWindow> windows_;
};

}  // namespace rdcn

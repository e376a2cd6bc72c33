#pragma once

// In-engine observability: a phase profiler plus a fixed-slot counter and
// gauge registry, compiled in always and off by default.
//
// Design constraints (both pinned by tests):
//  * zero overhead when off -- the engine holds a nullable Probe*, every
//    instrumentation site is one branch on it, and Span's constructor on a
//    null probe does nothing (no clock read);
//  * zero heap allocations at steady state when ON -- counters and gauges
//    are fixed arrays, the span stack is a fixed-depth array, and the raw
//    span ring is pre-sized at construction with drop-oldest overflow (the
//    discarded spans are counted in Counter::DroppedEvents), so enabling
//    the probe never perturbs the allocation profile the hot-path tests
//    pin -- nor the schedule: instrumentation only observes, which the
//    probe-enabled goldens in test_engine_regression verify bit-for-bit.
//
// The phase profiler measures the named phases of a scheduling round with
// RAII spans. Phases nest (impact-index queries run inside dispatch); each
// phase accumulates both total (inclusive) and self (exclusive) time, the
// latter by subtracting child time on the span stack, so the self times of
// a round partition its wall clock without double counting. The raw spans
// optionally land in a ring buffer exportable as a Chrome trace-event JSON
// document (util/trace.hpp) for timeline inspection in Perfetto.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/trace.hpp"

namespace rdcn {

/// The engine's round phases, in round order. Inject covers one packet's
/// Engine::inject per span (dispatch decision + route application);
/// IndexQuery one impact-index query (lazy rebuild + deferred-event flush
/// + lookup), nested inside Inject (or Select, for index-using
/// schedulers); HeadRefresh the head-list refresh (re-reading the listed
/// heads of the edges whose queues changed and merging them into the
/// sorted list); Service the chunk transmit, queue removal and retirement
/// accounting.
enum class Phase : std::uint8_t {
  Inject = 0,
  IndexQuery,
  Select,
  Validate,
  Service,
  HeadRefresh,
};
inline constexpr std::size_t kNumPhases = 6;
const char* to_string(Phase phase);

/// Monotone counters. HeadsRefreshed counts head entries the head-list
/// refresh re-read and merged in; IndexRebuilds mirrors ImpactIndex::rebuilds() (set,
/// not incremented, by the engine once per round); DroppedEvents counts
/// ring-overflow span discards and is maintained by the probe itself.
enum class Counter : std::uint8_t {
  Rounds = 0,
  ChunksTransmitted,
  PacketsDispatched,
  PacketsRetired,
  HeadsRefreshed,
  ImpactQueries,
  IndexRebuilds,
  DroppedEvents,
  PacketsDropped,   ///< failure-injection drops (StageMutation / dead routes)
  PacketsRequeued,  ///< packets re-dispatched off a killed edge
  StageMutations,   ///< apply_mutation calls
};
inline constexpr std::size_t kNumCounters = 11;
const char* to_string(Counter counter);

/// Sampled gauges: last value and high-water mark. Sampled once per
/// scheduling round (ActiveTransmitters/ActiveReceivers only on rounds
/// where the policy built the active-endpoint map). PendingCandidates
/// counts pending packets (the queues' total), not head-list entries.
enum class Gauge : std::uint8_t {
  PendingCandidates = 0,
  SelectedPerRound,
  ActiveTransmitters,
  ActiveReceivers,
  TreapNodes,
  InFlight,
};
inline constexpr std::size_t kNumGauges = 6;
const char* to_string(Gauge gauge);

struct ProbeConfig {
  bool enabled = false;
  /// Raw-span ring capacity; 0 keeps aggregates only (no trace export).
  /// The ring is allocated once at construction.
  std::size_t event_capacity = 0;
};

/// Aggregated probe state, detached from the engine's lifetime (batch
/// runners destroy the engine before reporting). Plain data: safe to copy,
/// merge across repetitions, and diff across telemetry windows.
struct ProbeReport {
  bool enabled = false;
  std::array<std::uint64_t, kNumPhases> phase_self_ns{};   ///< exclusive
  std::array<std::uint64_t, kNumPhases> phase_total_ns{};  ///< inclusive
  std::array<std::uint64_t, kNumPhases> phase_calls{};
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<std::uint64_t, kNumGauges> gauge_last{};
  std::array<std::uint64_t, kNumGauges> gauge_max{};
  std::uint64_t wall_ns = 0;  ///< probe construction -> report()

  /// Total self time across phases: the instrumented share of wall_ns.
  std::uint64_t instrumented_ns() const noexcept;
};

/// Accumulates `from` into `into` (phase times and counters add, gauge
/// maxima max, gauge lasts follow `from`) -- repetition aggregation.
void merge_report(ProbeReport& into, const ProbeReport& from);

/// {"phases":{...},"counters":{...},"gauges":{...}} for machine-readable
/// front ends (suite rows, rdcn_cli profile).
json::Value report_to_json(const ProbeReport& report);

class Probe {
 public:
  explicit Probe(const ProbeConfig& config);

  /// RAII phase span. A null probe makes construction and destruction
  /// no-ops (single branch, no clock read) -- instrumentation sites pass
  /// the engine's nullable pointer unconditionally.
  class Span {
   public:
    Span(Probe* probe, Phase phase) noexcept : probe_(probe) {
      if (probe_ != nullptr) probe_->begin_span(phase);
    }
    ~Span() {
      if (probe_ != nullptr) probe_->end_span();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Probe* probe_;
  };

  void count(Counter counter, std::uint64_t delta = 1) noexcept {
    counters_[static_cast<std::size_t>(counter)] += delta;
  }
  /// Overwrites a counter with an externally-maintained monotone value.
  void set(Counter counter, std::uint64_t value) noexcept {
    counters_[static_cast<std::size_t>(counter)] = value;
  }
  void gauge(Gauge gauge, std::uint64_t value) noexcept {
    const auto i = static_cast<std::size_t>(gauge);
    gauge_last_[i] = value;
    if (value > gauge_max_[i]) gauge_max_[i] = value;
  }

  std::uint64_t counter(Counter counter) const noexcept {
    return counters_[static_cast<std::size_t>(counter)];
  }
  std::uint64_t phase_self_ns(Phase phase) const noexcept {
    return phase_self_ns_[static_cast<std::size_t>(phase)];
  }
  std::uint64_t dropped_events() const noexcept {
    return counters_[static_cast<std::size_t>(Counter::DroppedEvents)];
  }

  /// Snapshot of the aggregates (callable mid-run; telemetry windows diff
  /// consecutive snapshots).
  ProbeReport report() const;

  /// Ring contents, oldest first. Copies out of the ring (the ring itself
  /// never reorders), so the hot path is undisturbed.
  std::vector<trace::TraceEvent> events() const;

  /// Chrome trace document of the ring plus the registry as "otherData".
  std::string chrome_trace_json(int indent = 0) const;

 private:
  static constexpr std::size_t kMaxSpanDepth = 8;

  struct Frame {
    Phase phase = Phase::Inject;
    std::uint64_t start_ns = 0;
    std::uint64_t child_ns = 0;  ///< time closed child spans covered
  };

  void begin_span(Phase phase) noexcept;
  void end_span() noexcept;
  std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  std::chrono::steady_clock::time_point epoch_;

  std::array<std::uint64_t, kNumPhases> phase_self_ns_{};
  std::array<std::uint64_t, kNumPhases> phase_total_ns_{};
  std::array<std::uint64_t, kNumPhases> phase_calls_{};
  std::array<std::uint64_t, kNumCounters> counters_{};
  std::array<std::uint64_t, kNumGauges> gauge_last_{};
  std::array<std::uint64_t, kNumGauges> gauge_max_{};

  std::array<Frame, kMaxSpanDepth> stack_{};
  std::size_t depth_ = 0;
  /// Spans deeper than kMaxSpanDepth are folded into their ancestor
  /// (counted as its self time) instead of overflowing the stack.
  std::size_t overflow_depth_ = 0;

  /// Pre-sized ring, oldest at next_ once full (drop-oldest overwrite).
  std::vector<trace::TraceEvent> ring_;
  std::size_t ring_next_ = 0;
  std::size_t ring_size_ = 0;
};

}  // namespace rdcn

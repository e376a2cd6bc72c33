#include "sim/probe.hpp"

#include <utility>

namespace rdcn {

const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::Inject: return "inject";
    case Phase::IndexQuery: return "index_query";
    case Phase::Select: return "select";
    case Phase::Validate: return "validate";
    case Phase::Service: return "service_retire";
    case Phase::HeadRefresh: return "head_refresh";
  }
  return "?";
}

const char* to_string(Counter counter) {
  switch (counter) {
    case Counter::Rounds: return "rounds";
    case Counter::ChunksTransmitted: return "chunks_transmitted";
    case Counter::PacketsDispatched: return "packets_dispatched";
    case Counter::PacketsRetired: return "packets_retired";
    case Counter::HeadsRefreshed: return "heads_refreshed";
    case Counter::ImpactQueries: return "impact_queries";
    case Counter::IndexRebuilds: return "index_rebuilds";
    case Counter::DroppedEvents: return "dropped_events";
    case Counter::PacketsDropped: return "packets_dropped";
    case Counter::PacketsRequeued: return "packets_requeued";
    case Counter::StageMutations: return "stage_mutations";
  }
  return "?";
}

const char* to_string(Gauge gauge) {
  switch (gauge) {
    case Gauge::PendingCandidates: return "pending_candidates";
    case Gauge::SelectedPerRound: return "selected_per_round";
    case Gauge::ActiveTransmitters: return "active_transmitters";
    case Gauge::ActiveReceivers: return "active_receivers";
    case Gauge::IndexEntries: return "index_entries";
    case Gauge::InFlight: return "in_flight";
  }
  return "?";
}

std::uint64_t ProbeReport::instrumented_ns() const noexcept {
  std::uint64_t total = 0;
  for (std::uint64_t ns : phase_self_ns) total += ns;
  return total;
}

void merge_report(ProbeReport& into, const ProbeReport& from) {
  into.enabled = into.enabled || from.enabled;
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    into.phase_self_ns[i] += from.phase_self_ns[i];
    into.phase_total_ns[i] += from.phase_total_ns[i];
    into.phase_calls[i] += from.phase_calls[i];
  }
  for (std::size_t i = 0; i < kNumCounters; ++i) into.counters[i] += from.counters[i];
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    into.gauge_last[i] = from.gauge_last[i];
    if (from.gauge_max[i] > into.gauge_max[i]) into.gauge_max[i] = from.gauge_max[i];
  }
  into.wall_ns += from.wall_ns;
}

json::Value report_to_json(const ProbeReport& report) {
  json::Object phases;
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    json::Object phase;
    phase.emplace_back("calls",
                       json::Value(static_cast<std::int64_t>(report.phase_calls[i])));
    phase.emplace_back("self_ns",
                       json::Value(static_cast<std::int64_t>(report.phase_self_ns[i])));
    phase.emplace_back("total_ns",
                       json::Value(static_cast<std::int64_t>(report.phase_total_ns[i])));
    phases.emplace_back(to_string(static_cast<Phase>(i)), json::Value(std::move(phase)));
  }
  json::Object counters;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    counters.emplace_back(to_string(static_cast<Counter>(i)),
                          json::Value(static_cast<std::int64_t>(report.counters[i])));
  }
  json::Object gauges;
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    json::Object gauge;
    gauge.emplace_back("last",
                       json::Value(static_cast<std::int64_t>(report.gauge_last[i])));
    gauge.emplace_back("max", json::Value(static_cast<std::int64_t>(report.gauge_max[i])));
    gauges.emplace_back(to_string(static_cast<Gauge>(i)), json::Value(std::move(gauge)));
  }
  json::Object document;
  document.emplace_back("wall_ns", json::Value(static_cast<std::int64_t>(report.wall_ns)));
  document.emplace_back("phases", json::Value(std::move(phases)));
  document.emplace_back("counters", json::Value(std::move(counters)));
  document.emplace_back("gauges", json::Value(std::move(gauges)));
  return json::Value(std::move(document));
}

Probe::Probe(const ProbeConfig& config) : epoch_(std::chrono::steady_clock::now()) {
  // The only allocation the probe ever performs: ring slots are reused
  // (drop-oldest) once full, so steady state stays off the heap.
  ring_.resize(config.event_capacity);
}

void Probe::begin_span(Phase phase) noexcept {
  if (depth_ >= kMaxSpanDepth) {
    ++overflow_depth_;  // folded into the deepest tracked ancestor
    return;
  }
  Frame& frame = stack_[depth_++];
  frame.phase = phase;
  frame.child_ns = 0;
  frame.start_ns = now_ns();
}

void Probe::end_span() noexcept {
  if (overflow_depth_ > 0) {
    --overflow_depth_;
    return;
  }
  const std::uint64_t end = now_ns();
  Frame& frame = stack_[--depth_];
  const std::uint64_t elapsed = end - frame.start_ns;
  const auto p = static_cast<std::size_t>(frame.phase);
  // Self time excludes closed child spans; with nesting by containment the
  // per-phase self times partition the instrumented wall clock.
  phase_self_ns_[p] += elapsed - (frame.child_ns < elapsed ? frame.child_ns : elapsed);
  phase_total_ns_[p] += elapsed;
  ++phase_calls_[p];
  if (depth_ > 0) stack_[depth_ - 1].child_ns += elapsed;
  if (!ring_.empty()) {
    trace::TraceEvent& slot = ring_[ring_next_];
    if (ring_size_ == ring_.size()) {
      ++counters_[static_cast<std::size_t>(Counter::DroppedEvents)];
    } else {
      ++ring_size_;
    }
    slot.name = to_string(frame.phase);
    slot.start_ns = frame.start_ns;
    slot.dur_ns = elapsed;
    slot.depth = static_cast<std::uint32_t>(depth_);
    ring_next_ = ring_next_ + 1 == ring_.size() ? 0 : ring_next_ + 1;
  }
}

ProbeReport Probe::report() const {
  ProbeReport report;
  report.enabled = true;
  report.phase_self_ns = phase_self_ns_;
  report.phase_total_ns = phase_total_ns_;
  report.phase_calls = phase_calls_;
  report.counters = counters_;
  report.gauge_last = gauge_last_;
  report.gauge_max = gauge_max_;
  report.wall_ns = now_ns();
  return report;
}

std::vector<trace::TraceEvent> Probe::events() const {
  std::vector<trace::TraceEvent> out;
  out.reserve(ring_size_);
  const std::size_t oldest = ring_size_ == ring_.size() ? ring_next_ : 0;
  for (std::size_t i = 0; i < ring_size_; ++i) {
    out.push_back(ring_[(oldest + i) % ring_.size()]);
  }
  return out;
}

std::string Probe::chrome_trace_json(int indent) const {
  json::Object other;
  other.emplace_back("probe", report_to_json(report()));
  return trace::chrome_trace_json(events(), std::move(other), indent);
}

}  // namespace rdcn

#include "sim/metrics.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace rdcn {

double recompute_cost(const Instance& instance, const RunResult& result) {
  const Topology& topology = instance.topology();
  double total = 0.0;
  for (std::size_t i = 0; i < instance.num_packets(); ++i) {
    const Packet& packet = instance.packets()[i];
    const PacketOutcome& outcome = result.outcomes[i];
    if (outcome.route.use_fixed) {
      const auto direct = topology.fixed_link_delay(packet.source, packet.destination);
      total += packet.weight * static_cast<double>(*direct);
      continue;
    }
    const ReconfigEdge& edge = topology.edge(outcome.route.edge);
    const Delay tail = topology.transmitter_attach_delay(edge.transmitter) +
                       topology.receiver_attach_delay(edge.receiver);
    const double chunk_weight = packet.weight / static_cast<double>(edge.delay);
    for (Time transmit : outcome.chunk_transmit_steps) {
      total += chunk_weight * static_cast<double>(transmit + 1 + tail - packet.arrival);
    }
  }
  return total;
}

double recompute_cost_active_form(const Instance& instance, const RunResult& result) {
  // Integrate, step by step, the total weight of not-yet-delivered
  // fractions: packet p contributes (1 - X_tau) * w_p at every tau >= a_p
  // (Section II's continuous interpretation). We accumulate each chunk's
  // weight over its active window via difference arrays.
  const Topology& topology = instance.topology();
  std::map<Time, double> delta;  // weight entering/leaving at each step
  for (std::size_t i = 0; i < instance.num_packets(); ++i) {
    const Packet& packet = instance.packets()[i];
    const PacketOutcome& outcome = result.outcomes[i];
    if (outcome.route.use_fixed) {
      delta[packet.arrival] += packet.weight;
      delta[outcome.completion] -= packet.weight;
      continue;
    }
    const ReconfigEdge& edge = topology.edge(outcome.route.edge);
    const Delay tail = topology.transmitter_attach_delay(edge.transmitter) +
                       topology.receiver_attach_delay(edge.receiver);
    const double chunk_weight = packet.weight / static_cast<double>(edge.delay);
    for (Time transmit : outcome.chunk_transmit_steps) {
      delta[packet.arrival] += chunk_weight;
      delta[transmit + 1 + tail] -= chunk_weight;
    }
  }
  double total = 0.0;
  double active = 0.0;
  Time previous = 0;
  for (const auto& [time, change] : delta) {
    total += active * static_cast<double>(time - previous);
    active += change;
    previous = time;
  }
  return total;
}

bool all_delivered(const Instance& instance, const RunResult& result) {
  if (result.outcomes.size() != instance.num_packets()) return false;
  const Topology& topology = instance.topology();
  for (std::size_t i = 0; i < instance.num_packets(); ++i) {
    const PacketOutcome& outcome = result.outcomes[i];
    if (outcome.completion <= 0) return false;
    if (outcome.route.use_fixed) {
      if (!topology.fixed_link_delay(instance.packets()[i].source,
                                     instance.packets()[i].destination)) {
        return false;
      }
      continue;
    }
    const ReconfigEdge& edge = topology.edge(outcome.route.edge);
    if (outcome.chunk_transmit_steps.size() != static_cast<std::size_t>(edge.delay)) {
      return false;
    }
  }
  return true;
}

ScheduleSummary summarize(const Instance& instance, const RunResult& result) {
  ScheduleSummary summary;
  summary.total_cost = result.total_cost;
  summary.makespan = result.makespan;
  if (instance.num_packets() == 0) return summary;
  std::size_t reconfig = 0;
  for (std::size_t i = 0; i < instance.num_packets(); ++i) {
    const Packet& packet = instance.packets()[i];
    const PacketOutcome& outcome = result.outcomes[i];
    summary.max_latency =
        std::max(summary.max_latency, static_cast<double>(outcome.completion - packet.arrival));
    if (!outcome.route.use_fixed) ++reconfig;
  }
  summary.mean_weighted_latency =
      summary.total_cost / static_cast<double>(instance.num_packets());
  summary.reconfig_fraction =
      static_cast<double>(reconfig) / static_cast<double>(instance.num_packets());
  return summary;
}

StreamTelemetry::StreamTelemetry(Time window_steps) : window_steps_(window_steps) {
  if (window_steps < 1) throw std::invalid_argument("window_steps must be >= 1");
}

void StreamTelemetry::flush_window() {
  current_.mean_backlog =
      current_.steps > 0 ? backlog_sum_ / static_cast<double>(current_.steps) : 0.0;
  if (probe_ != nullptr) {
    // The probe's phase times are cumulative; each window keeps the delta
    // against the previous flush.
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      const std::uint64_t total = probe_->phase_self_ns(static_cast<Phase>(i));
      current_.phase_ns[i] = total - phase_snapshot_[i];
      phase_snapshot_[i] = total;
    }
  }
  windows_.push_back(current_);
  current_ = StreamWindow{};
  backlog_sum_ = 0.0;
}

void StreamTelemetry::on_step(Time now, std::uint64_t arrivals, std::uint64_t served,
                              std::size_t in_flight, const Probe* probe) {
  if (probe != nullptr) probe_ = probe;
  if (current_.steps == 0) current_.start = now;
  ++current_.steps;
  current_.arrivals += arrivals;
  current_.served += served;
  backlog_sum_ += static_cast<double>(in_flight);
  current_.peak_backlog = std::max(current_.peak_backlog,
                                   static_cast<std::uint64_t>(in_flight));
  if (current_.steps >= window_steps_) flush_window();
}

void StreamTelemetry::absorb_boundary(std::uint64_t served) {
  if (served == 0) return;
  if (windows_.empty() || current_.steps > 0) {
    current_.served += served;  // lands in the trailing partial window
  } else {
    windows_.back().served += served;
  }
}

const std::vector<StreamWindow>& StreamTelemetry::finish() {
  if (current_.steps > 0 || current_.served > 0) flush_window();
  return windows_;
}

}  // namespace rdcn

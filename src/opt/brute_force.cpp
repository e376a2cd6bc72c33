#include "opt/brute_force.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace rdcn {

namespace {

struct BudgetExceeded {};

/// Per-assignment exact scheduler: min cost of delivering all chunks.
class ScheduleSearch {
 public:
  ScheduleSearch(const Instance& instance, const std::vector<EdgeIndex>& route,
                 const BruteForceLimits& limits, std::uint64_t& states)
      : instance_(&instance), limits_(&limits), states_(&states) {
    const Topology& topology = instance.topology();
    for (std::size_t i = 0; i < instance.num_packets(); ++i) {
      if (route[i] == kInvalidEdge) continue;  // fixed-route packet
      const ReconfigEdge& edge = topology.edge(route[i]);
      Job job;
      job.packet = static_cast<PacketIndex>(i);
      job.arrival = instance.packets()[i].arrival;
      job.transmitter = edge.transmitter;
      job.receiver = edge.receiver;
      job.chunks = edge.delay;
      job.chunk_weight = instance.packets()[i].weight / static_cast<double>(edge.delay);
      job.tail = topology.transmitter_attach_delay(edge.transmitter) +
                 topology.receiver_attach_delay(edge.receiver);
      jobs_.push_back(job);
    }
    std::sort(jobs_.begin(), jobs_.end(),
              [](const Job& a, const Job& b) { return a.arrival < b.arrival; });
    strides_.resize(jobs_.size());
    std::uint64_t stride = 1;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      strides_[j] = stride;
      stride *= static_cast<std::uint64_t>(jobs_[j].chunks + 1);
    }
    horizon_ = instance.horizon_bound();
  }

  double solve() {
    std::vector<Delay> remaining(jobs_.size());
    Time start = std::numeric_limits<Time>::max();
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      remaining[j] = jobs_[j].chunks;
      start = std::min(start, jobs_[j].arrival);
    }
    if (jobs_.empty()) return 0.0;
    return search(start, remaining);
  }

 private:
  struct Job {
    PacketIndex packet = 0;
    Time arrival = 0;
    NodeIndex transmitter = 0;
    NodeIndex receiver = 0;
    Delay chunks = 0;
    double chunk_weight = 0.0;
    Delay tail = 0;
  };

  std::uint64_t encode(Time time, const std::vector<Delay>& remaining) const {
    std::uint64_t index = 0;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      index += strides_[j] * static_cast<std::uint64_t>(remaining[j]);
    }
    return index * static_cast<std::uint64_t>(horizon_ + 2) + static_cast<std::uint64_t>(time);
  }

  double search(Time time, std::vector<Delay>& remaining) {
    if (++*states_ > limits_->max_states) throw BudgetExceeded{};
    if (time > horizon_) throw std::logic_error("brute force exceeded horizon");

    std::vector<std::size_t> pending;
    bool future_work = false;
    Time next_arrival = std::numeric_limits<Time>::max();
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      if (remaining[j] == 0) continue;
      if (jobs_[j].arrival <= time) {
        pending.push_back(j);
      } else {
        future_work = true;
        next_arrival = std::min(next_arrival, jobs_[j].arrival);
      }
    }
    if (pending.empty()) {
      if (!future_work) return 0.0;
      return search(next_arrival, remaining);
    }

    const std::uint64_t key = encode(time, remaining);
    if (const auto it = memo_.find(key); it != memo_.end()) return it->second;

    // Enumerate all maximal matchings over the pending jobs' endpoints.
    double best = std::numeric_limits<double>::infinity();
    std::vector<std::size_t> chosen;
    enumerate(time, remaining, pending, 0, chosen, best);
    memo_.emplace(key, best);
    return best;
  }

  void enumerate(Time time, std::vector<Delay>& remaining,
                 const std::vector<std::size_t>& pending, std::size_t index,
                 std::vector<std::size_t>& chosen, double& best) {
    if (index == pending.size()) {
      // Maximality: every unchosen pending job must conflict with a chosen
      // one (transmitting more is never worse, so only maximal sets matter).
      for (std::size_t j : pending) {
        bool is_chosen = false;
        bool conflicts = false;
        for (std::size_t c : chosen) {
          if (c == j) {
            is_chosen = true;
            break;
          }
          if (jobs_[c].transmitter == jobs_[j].transmitter ||
              jobs_[c].receiver == jobs_[j].receiver) {
            conflicts = true;
          }
        }
        if (!is_chosen && !conflicts) return;  // not maximal; skip branch
      }
      double step_cost = 0.0;
      for (std::size_t c : chosen) {
        const Job& job = jobs_[c];
        step_cost += job.chunk_weight *
                     static_cast<double>(time + 1 + job.tail - job.arrival);
        --remaining[c];
      }
      const double rest = search(time + 1, remaining);
      for (std::size_t c : chosen) ++remaining[c];
      best = std::min(best, step_cost + rest);
      return;
    }

    const std::size_t j = pending[index];
    // Branch 1: include j when endpoints are free.
    bool free = true;
    for (std::size_t c : chosen) {
      if (jobs_[c].transmitter == jobs_[j].transmitter ||
          jobs_[c].receiver == jobs_[j].receiver) {
        free = false;
        break;
      }
    }
    if (free) {
      chosen.push_back(j);
      enumerate(time, remaining, pending, index + 1, chosen, best);
      chosen.pop_back();
    }
    // Branch 2: exclude j.
    enumerate(time, remaining, pending, index + 1, chosen, best);
  }

  const Instance* instance_;
  const BruteForceLimits* limits_;
  std::uint64_t* states_;
  std::vector<Job> jobs_;
  std::vector<std::uint64_t> strides_;
  Time horizon_ = 0;
  std::unordered_map<std::uint64_t, double> memo_;
};

}  // namespace

std::optional<BruteForceResult> brute_force_opt(const Instance& instance,
                                                const BruteForceLimits& limits) {
  if (instance.num_packets() > limits.max_packets) return std::nullopt;
  const Topology& topology = instance.topology();

  // Route options per packet: each candidate edge, plus kInvalidEdge for
  // the fixed link when one exists.
  std::vector<std::vector<EdgeIndex>> options(instance.num_packets());
  for (std::size_t i = 0; i < instance.num_packets(); ++i) {
    const Packet& packet = instance.packets()[i];
    const auto edges = topology.pair_edges(packet.source, packet.destination);
    options[i].assign(edges.begin(), edges.end());
    if (topology.fixed_link_delay(packet.source, packet.destination)) {
      options[i].push_back(kInvalidEdge);
    }
  }

  BruteForceResult result;
  result.cost = std::numeric_limits<double>::infinity();
  std::vector<EdgeIndex> route(instance.num_packets());

  // Iterative odometer over the assignment product space.
  std::vector<std::size_t> cursor(instance.num_packets(), 0);
  try {
    while (true) {
      double fixed_cost = 0.0;
      for (std::size_t i = 0; i < instance.num_packets(); ++i) {
        route[i] = options[i][cursor[i]];
        if (route[i] == kInvalidEdge) {
          const Packet& packet = instance.packets()[i];
          fixed_cost += packet.weight * static_cast<double>(*topology.fixed_link_delay(
                                            packet.source, packet.destination));
        }
      }
      ++result.assignments_tried;
      ScheduleSearch search(instance, route, limits, result.states_explored);
      result.cost = std::min(result.cost, fixed_cost + search.solve());

      // Advance the odometer.
      std::size_t position = 0;
      while (position < cursor.size()) {
        if (++cursor[position] < options[position].size()) break;
        cursor[position] = 0;
        ++position;
      }
      if (position == cursor.size()) break;
      if (cursor.empty()) break;
    }
  } catch (const BudgetExceeded&) {
    return std::nullopt;
  }
  if (instance.num_packets() == 0) result.cost = 0.0;
  return result;
}

}  // namespace rdcn

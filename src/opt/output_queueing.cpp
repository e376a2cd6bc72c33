#include "opt/output_queueing.hpp"

#include <algorithm>
#include <queue>
#include <vector>

namespace rdcn {

double output_queueing_bound(const Instance& instance) {
  const Topology& topology = instance.topology();

  struct Job {
    Time arrival;
    double weight;
  };
  std::vector<std::vector<Job>> per_destination(
      static_cast<std::size_t>(topology.num_destinations()));
  for (const Packet& packet : instance.packets()) {
    per_destination[static_cast<std::size_t>(packet.destination)].push_back(
        Job{packet.arrival, packet.weight});
  }

  double total = 0.0;
  for (NodeIndex dest = 0; dest < topology.num_destinations(); ++dest) {
    auto& jobs = per_destination[static_cast<std::size_t>(dest)];
    if (jobs.empty()) continue;
    // A destination absorbs at most one packet per attached receiver per
    // step; destinations reachable only via fixed links still pay >= 1
    // step each, which a 1-per-step server under-counts safely.
    const std::size_t receivers = topology.receivers_of_destination(dest).size();
    const std::size_t capacity = std::max<std::size_t>(1, receivers);

    std::sort(jobs.begin(), jobs.end(),
              [](const Job& a, const Job& b) { return a.arrival < b.arrival; });

    // Heaviest-first is optimal for unit jobs with release dates on a
    // c-slot server; simulate it. Every undelivered packet pays its weight
    // once per step (the fractional-latency accounting); a packet served
    // in step `clock` completes at clock + 1, so it pays this step too.
    std::priority_queue<double> heap;
    double pending_weight = 0.0;
    std::size_t index = 0;
    Time clock = jobs.front().arrival;
    while (index < jobs.size() || !heap.empty()) {
      if (heap.empty() && index < jobs.size() && jobs[index].arrival > clock) {
        clock = jobs[index].arrival;  // fast-forward over idle gaps
      }
      while (index < jobs.size() && jobs[index].arrival <= clock) {
        heap.push(jobs[index].weight);
        pending_weight += jobs[index].weight;
        ++index;
      }
      total += pending_weight;
      for (std::size_t slot = 0; slot < capacity && !heap.empty(); ++slot) {
        pending_weight -= heap.top();
        heap.pop();
      }
      ++clock;
    }
  }
  return total;
}

}  // namespace rdcn

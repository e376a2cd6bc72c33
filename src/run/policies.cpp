#include "run/policies.hpp"

#include <stdexcept>

#include "baseline/dispatchers.hpp"
#include "baseline/schedulers.hpp"
#include "core/alg.hpp"

namespace rdcn {

namespace {

template <typename Dispatcher, auto... args>
std::unique_ptr<DispatchPolicy> make_dispatcher() {
  return std::make_unique<Dispatcher>(args...);
}

template <typename Scheduler, auto... args>
std::unique_ptr<SchedulePolicy> make_scheduler(const Topology&) {
  return std::make_unique<Scheduler>(args...);
}

/// For schedulers that size their state by the topology (iSLIP, rotor).
template <typename Scheduler>
std::unique_ptr<SchedulePolicy> make_topology_scheduler(const Topology& topology) {
  return std::make_unique<Scheduler>(topology);
}

enum class Grid {
  SchedulerBaselines,   ///< EXP-B1: scheduler alternatives under JSQ dispatch
  DispatcherAblations,  ///< EXP-B2: dispatcher alternatives under stable matching
};

/// One registry entry: its registry name, its label in its grid's tables,
/// the grid, and its (dispatcher, scheduler) pair.
struct PolicyRow {
  const char* name;
  const char* label;
  Grid grid;
  std::unique_ptr<DispatchPolicy> (*dispatcher)();
  std::unique_ptr<SchedulePolicy> (*scheduler)(const Topology&);
};

constexpr auto kJsq = make_dispatcher<JsqDispatcher>;
constexpr auto kStable = make_scheduler<StableMatchingScheduler>;
constexpr Grid kB1 = Grid::SchedulerBaselines;
constexpr Grid kB2 = Grid::DispatcherAblations;

/// The registry, in presentation order; each grid keeps the table's order.
constexpr PolicyRow kPolicies[] = {
    {"alg", "ALG", kB1, make_dispatcher<ImpactDispatcher>, kStable},
    {"maxweight", "MaxWeight", kB1, kJsq, make_scheduler<MaxWeightScheduler>},
    {"islip", "iSLIP", kB1, kJsq, make_topology_scheduler<IslipScheduler>},
    {"rotor", "Rotor", kB1, kJsq, make_topology_scheduler<RotorScheduler>},
    {"random", "RandomMaximal", kB1, kJsq, make_scheduler<RandomMaximalScheduler, 99ULL>},
    {"fifo", "FIFO", kB1, kJsq, make_scheduler<FifoScheduler>},
    {"impact", "Impact (ALG)", kB2, make_dispatcher<ImpactDispatcher>, kStable},
    {"random-dispatch", "Random", kB2, make_dispatcher<RandomDispatcher, 5ULL>, kStable},
    {"round-robin", "RoundRobin", kB2, make_dispatcher<RoundRobinDispatcher>, kStable},
    {"jsq", "JSQ", kB2, make_dispatcher<JsqDispatcher>, kStable},
    {"min-delay", "MinDelay", kB2, make_dispatcher<MinDelayDispatcher>, kStable},
    {"direct-only", "DirectOnly", kB2, make_dispatcher<DirectOnlyDispatcher>, kStable},
};

std::vector<PolicyFactory> grid(Grid which) {
  std::vector<PolicyFactory> policies;
  for (const PolicyRow& row : kPolicies) {
    if (row.grid == which) policies.push_back({row.label, row.dispatcher, row.scheduler});
  }
  return policies;
}

}  // namespace

PolicyFactory alg_policy() { return named_policy("alg"); }

PolicyFactory named_policy(const std::string& name) {
  for (const PolicyRow& row : kPolicies) {
    if (name == row.name) return {row.name, row.dispatcher, row.scheduler};
  }
  throw std::invalid_argument("unknown policy '" + name + "'");
}

std::vector<std::string> policy_names() {
  std::vector<std::string> names;
  for (const PolicyRow& row : kPolicies) names.emplace_back(row.name);
  return names;
}

std::vector<PolicyFactory> scheduler_baselines() { return grid(Grid::SchedulerBaselines); }

std::vector<PolicyFactory> dispatcher_ablations() { return grid(Grid::DispatcherAblations); }

}  // namespace rdcn

#pragma once

// A fixed piece of work whose CPU time tracks how fast the host runs the
// simulator's kind of code right now. On a shared VM the host slows every
// vCPU by up to 2x for tens of minutes at a time (other tenants' load), and
// process CPU time slows with it; timing the yardstick beside the workload
// lets the benchmark report host time at one nominal speed. The work is
// pointer chasing, a binary heap and an open-addressing table on arrays
// allocated once, so nothing the library does to the heap changes its cost.

#include <cstdint>
#include <vector>

namespace perfbench {

class Yardstick {
 public:
  /// Nominal CPU seconds of one run: a round figure near its time on the
  /// 4-vCPU Xeon VM of README.md in a quiet spell. Host-time metrics are
  /// scaled to it.
  static constexpr double kNominalCpuS = 0.003;

  Yardstick();

  /// Runs the fixed work once; returns its CPU seconds.
  double measure();

 private:
  std::uint64_t work();

  std::vector<std::uint32_t> next_;  ///< one random cycle over all slots
  std::vector<std::uint64_t> heap_;
  std::vector<std::uint64_t> table_;
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench

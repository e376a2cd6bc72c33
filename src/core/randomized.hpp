#pragma once

// Randomized scheduling -- the paper's Section VI names "exploring
// randomized scheduling algorithms" as future work; this module provides
// two natural candidates built on the same stable-matching skeleton, so
// the bench harness can measure whether randomization helps in practice:
//
//   * PerturbedStableScheduler -- multiplies each chunk's priority weight
//     by exp(sigma * N(0,1)) before the greedy pass (smoothed priorities;
//     sigma = 0 degenerates to ALG's scheduler);
//   * RandomSerialDictatorScheduler -- a random packet order per step
//     (uniform serial dictatorship), the unweighted analogue.
//
// Both remain stable with respect to their own per-step priority order,
// so the engine's matching validation and all delivery invariants hold.
// Both keep the default HeadKinds::Both and draw over the engine's head
// list (each edge's priority and arrival heads; see
// SchedulePolicy::select), not over every queued packet.
// Like the registry baselines, both keep their working buffers as members
// so steady-state select() calls allocate nothing.

#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "sim/greedy_select.hpp"
#include "util/rng.hpp"

namespace rdcn {

class PerturbedStableScheduler final : public SchedulePolicy {
 public:
  explicit PerturbedStableScheduler(double sigma, std::uint64_t seed = 1)
      : sigma_(sigma), rng_(seed) {}

  void select(const Engine& engine, Time now, const std::vector<Candidate>& candidates,
              Selection& out) override;

  double sigma() const noexcept { return sigma_; }

 private:
  double sigma_;
  Rng rng_;
  std::vector<double> noisy_;
  std::vector<std::size_t> order_;
  GreedySelectScratch scratch_;
};

class RandomSerialDictatorScheduler final : public SchedulePolicy {
 public:
  explicit RandomSerialDictatorScheduler(std::uint64_t seed = 1) : rng_(seed) {}

  void select(const Engine& engine, Time now, const std::vector<Candidate>& candidates,
              Selection& out) override;

 private:
  Rng rng_;
  std::vector<std::size_t> order_;
  GreedySelectScratch scratch_;
};

}  // namespace rdcn

#pragma once

// Schedule-policy baselines from classic switch scheduling (the literature
// the paper generalizes -- [20], [21], [49] -- plus the demand-oblivious
// rotor design of [8]):
//
//   MaxWeightScheduler -- per step, a maximum-weight matching of the
//                         heaviest chunk per (t, r) pair (Hungarian);
//   IslipScheduler     -- McKeown's iSLIP: iterative round-robin
//                         request/grant/accept with pointer desynchronization;
//   RotorScheduler     -- cycles through a fixed edge coloring of the
//                         reconfigurable layer, demand-obliviously;
//   RandomMaximalScheduler -- random-order greedy maximal matching;
//   FifoScheduler      -- greedy maximal matching in arrival order
//                         (weight-blind stable matching).
//
// Each pass reads the engine's head list -- at most two entries per edge
// (SchedulePolicy::select) -- so a round costs O(|E|) however deep the
// backlog: MaxWeight's heaviest chunk per pair is some edge's priority
// head, and the FIFO head that iSLIP, rotor and FIFO look for is some
// edge's arrival head. MaxWeight therefore declares HeadKinds::Priority
// and FIFO HeadKinds::Arrival, which hands each one entry per edge in
// the order it ranks by; iSLIP, rotor and random keep the default Both.
// All five keep their working storage in per-instance members sized by
// the topology or the round's active endpoints (engine.active_endpoints),
// so steady-state select() calls perform zero heap allocations.

#include <cstdint>
#include <vector>

#include "match/edge_coloring.hpp"
#include "match/hungarian.hpp"
#include "sim/engine.hpp"
#include "sim/greedy_select.hpp"
#include "util/rng.hpp"

namespace rdcn {

class MaxWeightScheduler final : public SchedulePolicy {
 public:
  void select(const Engine& engine, Time now, const std::vector<Candidate>& candidates,
              Selection& out) override;
  HeadKinds heads() const noexcept override { return HeadKinds::Priority; }

 private:
  // The Hungarian runs on the k_active x k_active submatrix of busy
  // endpoints (rows = smaller active side), stored flat in cost_.
  HungarianWorkspace hungarian_;
  std::vector<double> cost_;
  std::vector<std::size_t> best_;  ///< heaviest candidate per matrix cell
  std::vector<std::int32_t> assignment_;
};

class IslipScheduler final : public SchedulePolicy {
 public:
  /// Sizes the round-robin pointer state from the topology once; each
  /// round runs request/grant/accept until convergence. select() asserts
  /// the engine's topology matches (a reused scheduler used to silently
  /// reset its pointers on a size change).
  explicit IslipScheduler(const Topology& topology);
  void select(const Engine& engine, Time now, const std::vector<Candidate>& candidates,
              Selection& out) override;

 private:
  std::vector<std::size_t> grant_pointer_;   ///< per receiver (persistent)
  std::vector<std::size_t> accept_pointer_;  ///< per transmitter (persistent)
  // Per-round scratch over active endpoints only.
  std::vector<std::size_t> request_;     ///< kt x kr head-of-line map
  std::vector<char> t_matched_, r_matched_;
  std::vector<std::size_t> grant_rank_;  ///< per active transmitter
  std::vector<std::size_t> grant_from_;  ///< granting receiver rank
};

class RotorScheduler final : public SchedulePolicy {
 public:
  /// Precomputes the coloring of the topology's reconfigurable layer.
  explicit RotorScheduler(const Topology& topology);
  void select(const Engine& engine, Time now, const std::vector<Candidate>& candidates,
              Selection& out) override;

  std::int32_t cycle_length() const noexcept { return coloring_.num_colors; }

 private:
  EdgeColoring coloring_;
  // Serial-stamped FIFO-head slot per edge: only edges touched by the
  // head-list scan are visited, never the whole edge array.
  std::uint64_t serial_ = 0;
  std::vector<std::uint64_t> head_stamp_;
  std::vector<std::size_t> head_slot_;
  std::vector<std::size_t> touched_edges_;
};

class RandomMaximalScheduler final : public SchedulePolicy {
 public:
  explicit RandomMaximalScheduler(std::uint64_t seed = 1) : rng_(seed) {}
  void select(const Engine& engine, Time now, const std::vector<Candidate>& candidates,
              Selection& out) override;

 private:
  Rng rng_;
  std::vector<std::size_t> order_;
  GreedySelectScratch scratch_;
};

class FifoScheduler final : public SchedulePolicy {
 public:
  /// Scans the list in arrival order: as given when it is already in
  /// packet-id order (the engine's Arrival list), sorted otherwise (a
  /// Both list, when a wrapper hides heads()).
  void select(const Engine& engine, Time now, const std::vector<Candidate>& candidates,
              Selection& out) override;
  HeadKinds heads() const noexcept override { return HeadKinds::Arrival; }

 private:
  std::vector<std::size_t> order_;
  GreedySelectScratch scratch_;
};

}  // namespace rdcn

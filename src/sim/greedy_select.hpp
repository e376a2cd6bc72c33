#pragma once

// Shared scratch for greedy maximal-matching schedulers (ALG's stable
// matching at capacity 1, FIFO, the randomized family, random-maximal):
// accept candidates in list order or a caller-imposed one whenever both
// endpoints are still free. Endpoint-busy state is serial-stamped --
// bumping one counter frees every endpoint -- so a round costs one pass
// over the head list (at most two entries per edge) with direct topology
// indexing: no per-round clearing, no dense remap, no allocations after
// the arrays grow to the topology size once.
// (Measured against the active-endpoint remap of
// engine.active_endpoints(): for these O(1)-per-candidate passes the
// extra remap pass costs more than compact bitsets save; the remap pays
// off for matrix-shaped state -- MaxWeight, iSLIP.)

// rdcn-lint: hot-file

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/engine.hpp"

namespace rdcn {

struct GreedySelectScratch {
  std::uint64_t serial = 0;
  std::vector<std::uint64_t> transmitter_taken;  ///< taken iff == serial
  std::vector<std::uint64_t> receiver_taken;

  /// Greedily accepts `order`'s candidates (indices into `candidates`)
  /// whose endpoints are both free, appending accepted indices to `out`
  /// in acceptance order.
  void select_in_order(const Engine& engine, const std::vector<Candidate>& candidates,
                       const std::vector<std::size_t>& order, Selection& out) {
    start(engine);
    for (std::size_t idx : order) {
      if (take(candidates[idx])) out.push(idx);
    }
  }

  /// The same pass over `candidates` in list order, ending once `limit`
  /// are accepted (for a caller that knows no later one can be).
  void select_in_list_order(const Engine& engine,
                            const std::vector<Candidate>& candidates, Selection& out,
                            std::size_t limit = std::numeric_limits<std::size_t>::max()) {
    start(engine);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (!take(candidates[i])) continue;
      out.push(i);
      if (out.size() == limit) break;
    }
  }

 private:
  void start(const Engine& engine) {
    transmitter_taken.resize(static_cast<std::size_t>(engine.topology().num_transmitters()),
                             0);
    receiver_taken.resize(static_cast<std::size_t>(engine.topology().num_receivers()), 0);
    ++serial;
  }
  /// Takes both endpoints of `c` if both are free.
  bool take(const Candidate& c) {
    auto& t_taken = transmitter_taken[static_cast<std::size_t>(c.transmitter)];
    auto& r_taken = receiver_taken[static_cast<std::size_t>(c.receiver)];
    if (t_taken == serial || r_taken == serial) return false;
    t_taken = serial;
    r_taken = serial;
    return true;
  }
};

}  // namespace rdcn

#include "baseline/schedulers.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace rdcn {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

bool fifo_before(const Candidate& a, const Candidate& b) {
  if (a.arrival != b.arrival) return a.arrival < b.arrival;
  return a.packet < b.packet;
}

}  // namespace

void MaxWeightScheduler::select(const Engine& engine, Time /*now*/,
                                const std::vector<Candidate>& candidates, Selection& out) {
  const ActiveEndpoints& active = engine.active_endpoints(candidates);
  const std::size_t kt = active.num_transmitters();
  const std::size_t kr = active.num_receivers();
  if (kt == 0 || kr == 0) return;

  // Dense cost matrix over the ACTIVE endpoints only (rows = smaller
  // side): cell (i, j) holds minus the heaviest chunk weight between the
  // pair, 0 when no candidate connects them, so the min-cost assignment
  // restricted to negative cells is a maximum-weight matching. This is
  // max_weight_matching's encoding (match/hungarian.cpp) inlined over
  // candidates to skip the edge-list build -- keep the two in sync.
  const bool transpose = kt > kr;
  const std::size_t rows = transpose ? kr : kt;
  const std::size_t cols = transpose ? kt : kr;
  cost_.assign(rows * cols, 0.0);
  best_.assign(rows * cols, kNone);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& c = candidates[i];
    const auto t_rank = static_cast<std::size_t>(active.transmitter_rank(c.transmitter));
    const auto r_rank = static_cast<std::size_t>(active.receiver_rank(c.receiver));
    const std::size_t cell =
        transpose ? r_rank * cols + t_rank : t_rank * cols + r_rank;
    if (-c.chunk_weight < cost_[cell]) {
      cost_[cell] = -c.chunk_weight;
      best_[cell] = i;
    }
  }

  hungarian_.solve(cost_.data(), rows, cols, assignment_);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t cell = i * cols + static_cast<std::size_t>(assignment_[i]);
    if (cost_[cell] < 0.0 && best_[cell] != kNone) out.push(best_[cell]);
  }
}

IslipScheduler::IslipScheduler(const Topology& topology)
    : grant_pointer_(static_cast<std::size_t>(topology.num_receivers()), 0),
      accept_pointer_(static_cast<std::size_t>(topology.num_transmitters()), 0) {}

void IslipScheduler::select(const Engine& engine, Time /*now*/,
                            const std::vector<Candidate>& candidates, Selection& out) {
  const auto num_t = static_cast<std::size_t>(engine.topology().num_transmitters());
  const auto num_r = static_cast<std::size_t>(engine.topology().num_receivers());
  if (accept_pointer_.size() != num_t || grant_pointer_.size() != num_r) {
    throw std::logic_error(
        "IslipScheduler: engine topology does not match the construction topology");
  }
  const ActiveEndpoints& active = engine.active_endpoints(candidates);
  const std::size_t kt = active.num_transmitters();
  const std::size_t kr = active.num_receivers();
  if (kt == 0 || kr == 0) return;

  // request_[tt*kr + rr] = FIFO head for the (t, r) pair -- the earliest
  // of its edges' arrival heads -- over active-endpoint ranks.
  request_.assign(kt * kr, kNone);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto tt = static_cast<std::size_t>(active.transmitter_rank(candidates[i].transmitter));
    const auto rr = static_cast<std::size_t>(active.receiver_rank(candidates[i].receiver));
    auto& slot = request_[tt * kr + rr];
    if (slot == kNone || fifo_before(candidates[i], candidates[slot])) slot = i;
  }

  t_matched_.assign(kt, 0);
  r_matched_.assign(kr, 0);

  // Iterate to convergence: a round that accepts nothing ends the loop and
  // every other round matches a new pair, so the cap never binds.
  const int max_rounds = static_cast<int>(std::max(kt, kr)) + 1;
  for (int round = 0; round < max_rounds; ++round) {
    // Grant: each unmatched receiver picks, round-robin from its pointer,
    // the requesting unmatched transmitter closest after the pointer --
    // computed as an argmin over the ACTIVE transmitters' pointer
    // distance, which selects exactly the transmitter the classic
    // full-topology scan would reach first. A receiver grants one
    // transmitter; conflicting grants are resolved in the accept stage by
    // keeping, per transmitter, only the granting receiver with the
    // smallest accept-pointer distance (equivalent to collecting all
    // grants and picking the min, without a per-transmitter grant list).
    grant_rank_.assign(kt, kNone);
    grant_from_.assign(kt, kNone);
    for (std::size_t rr = 0; rr < kr; ++rr) {
      if (r_matched_[rr]) continue;
      const auto r = static_cast<std::size_t>(active.receivers[rr]);
      std::size_t best_tt = kNone;
      std::size_t best_rank = kNone;
      for (std::size_t tt = 0; tt < kt; ++tt) {
        if (t_matched_[tt] || request_[tt * kr + rr] == kNone) continue;
        const auto t = static_cast<std::size_t>(active.transmitters[tt]);
        const std::size_t rank = (t + num_t - grant_pointer_[r] % num_t) % num_t;
        if (rank < best_rank) {
          best_rank = rank;
          best_tt = tt;
        }
      }
      if (best_tt == kNone) continue;
      const auto t = static_cast<std::size_t>(active.transmitters[best_tt]);
      const std::size_t accept_rank = (r + num_r - accept_pointer_[t] % num_r) % num_r;
      if (accept_rank < grant_rank_[best_tt]) {
        grant_rank_[best_tt] = accept_rank;
        grant_from_[best_tt] = rr;
      }
    }
    // Accept: each granted transmitter takes its best-ranked receiver.
    bool any_accept = false;
    for (std::size_t tt = 0; tt < kt; ++tt) {
      const std::size_t rr = grant_from_[tt];
      if (rr == kNone) continue;
      t_matched_[tt] = 1;
      r_matched_[rr] = 1;
      out.push(request_[tt * kr + rr]);
      any_accept = true;
      if (round == 0) {
        // Pointer update only for first-iteration accepts (classic iSLIP
        // desynchronization rule).
        const auto t = static_cast<std::size_t>(active.transmitters[tt]);
        const auto r = static_cast<std::size_t>(active.receivers[rr]);
        grant_pointer_[r] = (t + 1) % num_t;
        accept_pointer_[t] = (r + 1) % num_r;
      }
    }
    if (!any_accept) break;
  }
}

RotorScheduler::RotorScheduler(const Topology& topology) {
  std::vector<BipartiteEdge> edges;
  edges.reserve(static_cast<std::size_t>(topology.num_edges()));
  for (const ReconfigEdge& edge : topology.edges()) {
    edges.push_back(BipartiteEdge{edge.transmitter, edge.receiver});
  }
  coloring_ = color_bipartite_edges(edges, static_cast<std::size_t>(topology.num_transmitters()),
                                    static_cast<std::size_t>(topology.num_receivers()));
  head_stamp_.assign(coloring_.color.size(), 0);
  head_slot_.assign(coloring_.color.size(), 0);
  // A color class is a matching, so this bounds any round's touched set.
  touched_edges_.reserve(std::min(static_cast<std::size_t>(topology.num_transmitters()),
                                  static_cast<std::size_t>(topology.num_receivers())));
}

void RotorScheduler::select(const Engine& /*engine*/, Time now,
                            const std::vector<Candidate>& candidates, Selection& out) {
  if (coloring_.num_colors == 0) return;
  const std::int32_t active_color =
      static_cast<std::int32_t>(now % static_cast<Time>(coloring_.num_colors));
  // The active color class is a matching over (t, r); per active edge,
  // transmit the FIFO head among the packets committed to it -- its
  // arrival head. Only edges seen in the head-list scan are touched
  // (serial-stamped slots), so the pass is O(heads + touched log touched),
  // not O(edges).
  ++serial_;
  touched_edges_.clear();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto e = static_cast<std::size_t>(candidates[i].edge);
    if (coloring_.color[e] != active_color) continue;
    if (head_stamp_[e] != serial_) {
      head_stamp_[e] = serial_;
      head_slot_[e] = i;
      touched_edges_.push_back(e);
    } else if (fifo_before(candidates[i], candidates[head_slot_[e]])) {
      head_slot_[e] = i;
    }
  }
  std::sort(touched_edges_.begin(), touched_edges_.end());
  for (std::size_t e : touched_edges_) out.push(head_slot_[e]);
}

void RandomMaximalScheduler::select(const Engine& engine, Time /*now*/,
                                    const std::vector<Candidate>& candidates, Selection& out) {
  order_.resize(candidates.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  rng_.shuffle(order_);
  scratch_.select_in_order(engine, candidates, order_, out);
}

void FifoScheduler::select(const Engine& engine, Time /*now*/,
                           const std::vector<Candidate>& candidates, Selection& out) {
  order_.resize(candidates.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  // Ids are assigned in arrival order, so packet-id order is fifo_before's.
  const bool in_id_order = std::is_sorted(
      candidates.begin(), candidates.end(),
      [](const Candidate& a, const Candidate& b) { return a.packet < b.packet; });
  if (!in_id_order) {
    std::sort(order_.begin(), order_.end(), [&candidates](std::size_t a, std::size_t b) {
      return fifo_before(candidates[a], candidates[b]);
    });
  }
  scratch_.select_in_order(engine, candidates, order_, out);
}

}  // namespace rdcn

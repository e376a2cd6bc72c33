#include "core/randomized.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace rdcn {

void PerturbedStableScheduler::select(const Engine& engine, Time /*now*/,
                                      const std::vector<Candidate>& candidates,
                                      Selection& out) {
  // Log-normal multiplicative noise keeps weights positive and preserves
  // large weight gaps while shuffling near-ties.
  noisy_.resize(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double u1 = rng_.next_double();
    const double u2 = rng_.next_double();
    const double normal =
        std::sqrt(-2.0 * std::log(u1 + 1e-300)) * std::cos(6.283185307179586 * u2);
    noisy_[i] = candidates[i].chunk_weight * std::exp(sigma_ * normal);
  }
  order_.resize(candidates.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    if (noisy_[a] != noisy_[b]) return noisy_[a] > noisy_[b];
    if (candidates[a].arrival != candidates[b].arrival) {
      return candidates[a].arrival < candidates[b].arrival;
    }
    return candidates[a].packet < candidates[b].packet;
  });
  scratch_.select_in_order(engine, candidates, order_, out);
}

}  // namespace rdcn

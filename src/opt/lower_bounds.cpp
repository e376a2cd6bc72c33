#include "opt/lower_bounds.hpp"

#include <algorithm>

#include "core/alg.hpp"
#include "core/dual_witness.hpp"
#include "lp/paper_lps.hpp"

namespace rdcn {

double LowerBounds::best() const {
  double bound = std::max(0.0, trivial_bound);
  bound = std::max(bound, dual_witness_bound);
  if (lp_bound) bound = std::max(bound, *lp_bound);
  return bound;
}

LowerBounds compute_lower_bounds(const Instance& instance, const LowerBoundOptions& options) {
  LowerBounds bounds;
  bounds.trivial_bound = instance.ideal_cost();

  const RunResult alg = run_alg(instance);
  const DualWitness witness = build_dual_witness(instance, alg);
  bounds.dual_witness_bound = std::max(0.0, witness.lower_bound(options.eps));

  if (options.max_lp_variables > 0) {
    // Estimate the x-variable count before committing to the dense solver.
    const Time horizon = default_lp_horizon(instance, options.eps);
    std::size_t variables = 0;
    for (const Packet& packet : instance.packets()) {
      const std::size_t edges =
          instance.topology().pair_edges(packet.source, packet.destination).size();
      variables += edges * static_cast<std::size_t>(horizon - packet.arrival + 1);
    }
    if (variables <= options.max_lp_variables) {
      bounds.lp_bound = lp_opt_lower_bound(instance, options.eps, horizon);
    }
  }
  return bounds;
}

}  // namespace rdcn

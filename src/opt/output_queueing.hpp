#pragma once

// Output-queueing relaxation -- the single-tier yardstick of Chuang, Goel,
// McKeown, Prabhakar [21] ("matching output queueing with a CIOQ switch").
//
// Drop every constraint except the destination's: at each step, a
// destination can absorb at most (number of its receivers) x capacity
// packets, each completing one step after service starts. For unit
// packets, serving the heaviest pending packet first is optimal for
// weighted flow time on such a uniform server (exchange argument), so the
// per-destination heaviest-first schedule is an exact optimum of the
// relaxation -- hence a valid lower bound on every real schedule,
// including ALG's with any matching constraints on top.

#include "net/instance.hpp"

namespace rdcn {

/// Lower bound on the weighted fractional latency of ANY unit-speed
/// schedule of the instance (ignores transmitter contention, matching
/// constraints, and all path delays beyond the minimal 1-step service).
double output_queueing_bound(const Instance& instance);

}  // namespace rdcn

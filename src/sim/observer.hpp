#pragma once

// Engine observation interface for the check/ validation subsystem.
//
// When EngineOptions::audit is set, the engine constructs an
// InvariantAuditor (see src/check/audit.hpp) through make_invariant_auditor
// and calls it at every state transition: step begin, packet dispatch,
// scheduler selection (before the engine's own validation), chunk
// transmission, packet retirement, and step end. The auditor maintains an
// independent per-packet ledger and re-derives every invariant from the
// topology and the observed events alone, so a bug in the engine's
// incremental accounting cannot hide itself. Violations throw AuditFailure.
//
// The interface lives in sim/ (below check/) so the engine can hold an
// observer without an include cycle; the auditor, its one implementation,
// ships in src/check/audit.cpp and is linked through the factory below.

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/policy.hpp"

namespace rdcn {

class Engine;
struct PacketOutcome;

/// Thrown by the invariant auditor when an engine invariant is violated.
/// Distinct from std::logic_error so tests (and the fuzz driver) can tell
/// "the auditor caught it" apart from the engine's own contract checks.
class AuditFailure : public std::logic_error {
 public:
  explicit AuditFailure(const std::string& what) : std::logic_error(what) {}
};

/// Per-step engine observer. All hooks run synchronously inside the engine
/// step; `engine` is the observed engine in its current (mid-step) state.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;

  /// After the clock advanced (and the max_steps guard passed).
  virtual void on_step_begin(const Engine& engine, Time previous_now) = 0;

  /// A packet was handed to the dispatcher and `route` is about to be
  /// applied. Called again for the same packet only under
  /// EngineOptions::redispatch_queued (before any chunk transmitted).
  virtual void on_dispatch(const Engine& engine, const Packet& packet,
                           const RouteDecision& route) = 0;

  /// The scheduler returned `selected` (indices into `candidates`, the
  /// head list it was handed), before the engine's own validation runs --
  /// the auditor independently verifies the selection is a feasible
  /// (b-)matching.
  virtual void on_selection(const Engine& engine, const std::vector<Candidate>& candidates,
                            const std::vector<std::size_t>& selected) = 0;

  /// The chunks of `transmitted` (indices into `candidates`, a subset of
  /// the validated selection after reconfiguration-delay filtering) are
  /// transmitted this round; candidate `remaining` values are pre-decrement.
  virtual void on_round(const Engine& engine, const std::vector<Candidate>& candidates,
                        const std::vector<std::size_t>& transmitted) = 0;

  /// `packet` completed with `outcome` (called before the outcome leaves
  /// the engine through the sink / result vector).
  virtual void on_retire(const Engine& engine, PacketIndex packet,
                         const PacketOutcome& outcome) = 0;

  /// `packet` was dropped by a stage mutation (its edge died, or it
  /// arrived for a pair with no surviving route) and `outcome` -- with
  /// outcome.dropped set and completion 0 -- is about to leave the engine.
  /// For an arrival-time drop the packet was never seen by on_dispatch.
  virtual void on_drop(const Engine& engine, PacketIndex packet,
                       const PacketOutcome& outcome) = 0;

  /// A stage mutation killed `packet`'s edge before any chunk transmitted
  /// and the packet is about to be re-dispatched (an on_dispatch for the
  /// same packet follows within the same apply_mutation call).
  virtual void on_requeue(const Engine& engine, PacketIndex packet) = 0;

  /// All scheduling rounds of the step ran and retirements are applied.
  virtual void on_step_end(const Engine& engine) = 0;
};

/// Builds the check/ subsystem's invariant auditor (defined in
/// src/check/audit.cpp; everything links into the one rdcn library).
std::unique_ptr<EngineObserver> make_invariant_auditor();

}  // namespace rdcn

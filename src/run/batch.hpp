#pragma once

// BatchRunner: fans a grid of (scenario x policy) cells out over the
// shared thread pool, one task per repetition. Results are deterministic
// and independent of worker scheduling: every repetition's outcome lands
// in its preassigned slot, and aggregates are folded in seed order.
// Streamed (open-loop) cells queue via add_stream / run_streams, so
// latency-vs-load sweeps parallelize like batch grids. Both queues drain
// through one fan-out (slot preassignment, retries, the countdown that
// finalizes a cell, the fail_fast drain), and a cell folds its outcomes
// through its runner's aggregate(), exactly as the sequential run() does.
//
// Fault tolerance (run/failure.hpp): set_policy configures what a
// throwing cell does to its siblings (fail_fast rethrows the first
// failure -- lowest cell, lowest repetition -- after the pool drains,
// counting and logging the suppressed ones; isolate turns each failed
// cell into a structured CellError on its result and leaves siblings
// bit-identical to a fault-free run), an optional per-repetition
// wall-clock deadline (cooperative: the engine cancels at the next step
// boundary), and bounded seed-preserving retry with exponential backoff
// for transient failures. The per-cell completion callbacks exist for
// crash-safe journaling: SuiteRunner appends each cell's row the moment
// its last repetition lands, not when the whole grid drains.

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "run/failure.hpp"
#include "run/scenario.hpp"
#include "run/stream.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace rdcn {

/// fail_fast terminal error when more than one cell failed: the primary
/// (lowest-cell, lowest-repetition) failure's message with the suppressed
/// count attached. A single failed cell rethrows its original exception
/// unwrapped, preserving the type.
class BatchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class BatchRunner {
 public:
  /// threads = 0 uses hardware concurrency.
  explicit BatchRunner(std::size_t threads = 0) : pool_(threads) {}

  /// Fault-tolerance configuration for subsequent run()/run_streams()
  /// calls (failure policy, deadline, retry budget, fault injection).
  void set_policy(RunPolicy policy) { policy_ = std::move(policy); }
  const RunPolicy& policy() const noexcept { return policy_; }

  /// Enqueues one cell; returns its index into run()'s result vector.
  std::size_t add(ScenarioSpec spec, PolicyFactory policy, RepMetric metric = nullptr);

  /// Convenience: one scenario against a whole policy grid.
  void add_grid(const ScenarioSpec& spec, const std::vector<PolicyFactory>& policies);

  std::size_t cells() const noexcept { return cells_.size(); }

  /// Invoked (from a worker thread) the moment a cell's last repetition
  /// lands, with its aggregated result -- the journaling hook. Calls for
  /// different cells may race; guard shared state. Failed cells are
  /// reported through it under isolate only (fail_fast is about to throw,
  /// and a journaled error row would wrongly survive a resume). A callback
  /// that throws ends the run: the exception leaves run() once every task
  /// has finished.
  using CellDone = std::function<void(std::size_t cell, const ScenarioResult&)>;
  using StreamCellDone = std::function<void(std::size_t cell, const StreamResult&)>;

  /// Runs every repetition of every queued cell on the pool and clears
  /// the queue, also when it throws. Results are in add() order and are
  /// aggregated exactly like ScenarioRunner::run.
  std::vector<ScenarioResult> run(const CellDone& on_cell_done = nullptr);

  // --- streamed cells ----------------------------------------------------

  /// Enqueues one streamed cell; returns its index into run_streams()'s
  /// result vector. Stream and scenario queues are independent.
  std::size_t add_stream(StreamSpec spec, PolicyFactory policy);

  /// Convenience: one stream against a whole policy grid.
  void add_stream_grid(const StreamSpec& spec, const std::vector<PolicyFactory>& policies);

  std::size_t stream_cells() const noexcept { return stream_cells_.size(); }

  /// run() for the stream queue: results in add_stream() order,
  /// aggregated exactly like StreamRunner::run.
  std::vector<StreamResult> run_streams(const StreamCellDone& on_cell_done = nullptr);

 private:
  struct Cell {
    ScenarioRunner runner;
    PolicyFactory policy;
    RepMetric metric;
    RepetitionOutcome run(std::uint64_t seed, const CancelToken* cancel) const {
      return runner.run_repetition(policy, seed, metric, cancel);
    }
  };
  struct StreamCell {
    StreamRunner runner;
    PolicyFactory policy;
    StreamRepOutcome run(std::uint64_t seed, const CancelToken* cancel) const {
      return runner.run_repetition(policy, seed, cancel);
    }
  };

  /// The one fan-out behind run() and run_streams(). It takes the queue
  /// first, so the queue is empty however the run ends (a failed cell
  /// under fail_fast, a throwing completion callback).
  template <typename QueuedCell, typename Result>
  std::vector<Result> fan_out(
      std::vector<QueuedCell>& queue,
      const std::function<void(std::size_t, const Result&)>& on_cell_done);

  ThreadPool pool_;
  RunPolicy policy_;
  /// Lazily created on the first run with a deadline; shared across runs.
  std::unique_ptr<DeadlineWatchdog> watchdog_;
  std::vector<Cell> cells_;
  std::vector<StreamCell> stream_cells_;
};

}  // namespace rdcn

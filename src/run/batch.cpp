#include "run/batch.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

namespace rdcn {

namespace {

/// Per-cell failure ledger shared by a run's tasks. Every failing
/// repetition records; the lowest repetition wins, so the reported error
/// is deterministic regardless of worker scheduling (which is also why
/// sibling repetitions of a failed cell keep running: skipping them would
/// make the winner a race).
class FailureLedger {
 public:
  explicit FailureLedger(std::size_t cells) : cells_(cells) {}

  void record(std::size_t cell, std::size_t rep, const std::exception_ptr& failure,
              int attempts) {
    const std::lock_guard<std::mutex> lock(mutex_);
    Slot& slot = cells_[cell];
    if (slot.error.failed && slot.error.repetition <= rep) return;
    const FailureInfo info = describe_failure(failure);
    slot.error = CellError{true, info.type, info.message, rep, attempts};
    slot.exception = failure;
  }

  bool failed(std::size_t cell) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return cells_[cell].error.failed;
  }

  CellError error(std::size_t cell) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return cells_[cell].error;
  }

  std::exception_ptr exception(std::size_t cell) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return cells_[cell].exception;
  }

  /// Indices of failed cells, ascending (post-drain: no lock contention).
  std::vector<std::size_t> failed_cells() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::size_t> failed;
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      if (cells_[c].error.failed) failed.push_back(c);
    }
    return failed;
  }

 private:
  struct Slot {
    CellError error;
    std::exception_ptr exception;
  };
  mutable std::mutex mutex_;
  std::vector<Slot> cells_;
};

/// One repetition attempt loop: arm the deadline, run the fault hook and
/// the repetition, classify on throw, back off and re-run the same seed
/// while the failure is transient and budget remains. Definitive failures
/// land in the ledger.
template <typename RunFn>
void run_with_retries(const RunPolicy& policy, DeadlineWatchdog* watchdog,
                      const std::string& cell_name, std::size_t cell,
                      std::size_t rep, FailureLedger& ledger, const RunFn& run_rep) {
  int attempt = 0;
  for (;;) {
    ++attempt;
    CancelToken token;
    try {
      DeadlineWatchdog::Guard guard;
      const CancelToken* cancel = nullptr;
      if (policy.deadline_ms > 0 && watchdog != nullptr) {
        guard = watchdog->arm(token, policy.deadline_ms);
        cancel = &token;
      }
      if (policy.fault_hook) policy.fault_hook(cell_name, rep, cancel);
      run_rep(cancel);
      return;
    } catch (...) {
      const std::exception_ptr failure = std::current_exception();
      if (is_transient_failure(failure) && attempt < policy.max_attempts) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            backoff_delay_ms(policy.backoff_base_ms, attempt)));
        continue;  // same seed: a successful retry is bit-identical
      }
      ledger.record(cell, rep, failure, attempt);
      return;
    }
  }
}

/// fail_fast post-drain reporting: logs every suppressed failure, then
/// rethrows the primary (lowest cell, lowest repetition) -- unwrapped
/// when it is the only one, wrapped in BatchError with the suppressed
/// count otherwise.
template <typename Label>
[[noreturn]] void throw_fail_fast(const FailureLedger& ledger,
                                  const std::vector<std::size_t>& failed,
                                  const Label& label) {
  for (std::size_t i = 1; i < failed.size(); ++i) {
    const CellError error = ledger.error(failed[i]);
    std::fprintf(stderr, "batch: suppressed failure in cell %s (rep %zu, %s): %s\n",
                 label(failed[i]).c_str(), error.repetition, error.type.c_str(),
                 error.message.c_str());
  }
  if (failed.size() == 1) std::rethrow_exception(ledger.exception(failed.front()));
  const CellError primary = ledger.error(failed.front());
  const std::size_t more = failed.size() - 1;
  throw BatchError(primary.message + " (and " + std::to_string(more) + " more cell" +
                   (more > 1 ? "s" : "") + " failed)");
}

}  // namespace

template <typename QueuedCell, typename Result>
std::vector<Result> BatchRunner::fan_out(
    std::vector<QueuedCell>& queue,
    const std::function<void(std::size_t, const Result&)>& on_cell_done) {
  // Preassign every repetition a slot, then fan the (cell, repetition)
  // tasks out; tasks only write their own slot, so outcome writes need no
  // locking. The last repetition of a cell (acq_rel countdown) folds the
  // cell's aggregate in seed order -- deterministic regardless of worker
  // scheduling -- and fires the completion callback.
  const std::vector<QueuedCell> cells = std::exchange(queue, {});
  const std::size_t num_cells = cells.size();
  using Outcome = decltype(cells.front().run(0, nullptr));
  std::vector<std::vector<Outcome>> outcomes(num_cells);
  std::vector<Result> results(num_cells);
  FailureLedger ledger(num_cells);
  const auto remaining = std::make_unique<std::atomic<std::size_t>[]>(num_cells);
  const bool isolate = policy_.failure == FailurePolicy::Isolate;
  if (policy_.deadline_ms > 0 && !watchdog_) {
    watchdog_ = std::make_unique<DeadlineWatchdog>();
  }

  const auto cell_label = [&cells](std::size_t c) {
    return cells[c].runner.spec().name + " x " + cells[c].policy.name;
  };
  const auto finalize_cell = [&](std::size_t c) {
    Result& result = results[c];
    if (ledger.failed(c)) {
      result.scenario = cells[c].runner.spec().name;
      result.policy = cells[c].policy.name;
      result.error = ledger.error(c);
    } else {
      result = cells[c].runner.aggregate(cells[c].policy, std::move(outcomes[c]));
    }
    if (on_cell_done && (!result.error.failed || isolate)) on_cell_done(c, result);
  };

  struct Task {
    std::size_t cell;
    std::size_t rep;
    std::uint64_t seed;
  };
  std::vector<Task> tasks;
  for (std::size_t c = 0; c < num_cells; ++c) {
    // Never empty (the runners reject 0 repetitions), so every cell's last
    // task finalizes it.
    const std::vector<std::uint64_t> seeds = cells[c].runner.seeds();
    outcomes[c].resize(seeds.size());
    remaining[c].store(seeds.size(), std::memory_order_relaxed);
    for (std::size_t r = 0; r < seeds.size(); ++r) tasks.push_back(Task{c, r, seeds[r]});
  }

  // Engines throw on documented paths (starvation guard, scheduler
  // contract violations, deadline cancellation): every definitive failure
  // lands in the ledger and the failure policy decides after the drain.
  // Only a throwing completion callback escapes its task; the pool
  // rethrows it from wait_idle() once every task has finished.
  for (const Task& task : tasks) {
    pool_.submit([this, task, &cells, &outcomes, &ledger, &remaining, &finalize_cell,
                  &cell_label] {
      const std::string name = policy_.fault_hook ? cell_label(task.cell) : std::string();
      run_with_retries(policy_, watchdog_.get(), name, task.cell, task.rep, ledger,
                       [&](const CancelToken* cancel) {
                         outcomes[task.cell][task.rep] =
                             cells[task.cell].run(task.seed, cancel);
                       });
      if (remaining[task.cell].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        finalize_cell(task.cell);
      }
    });
  }
  pool_.wait_idle();

  const std::vector<std::size_t> failed = ledger.failed_cells();
  if (!failed.empty() && !isolate) throw_fail_fast(ledger, failed, cell_label);
  return results;
}

std::size_t BatchRunner::add(ScenarioSpec spec, PolicyFactory policy, RepMetric metric) {
  cells_.push_back(Cell{ScenarioRunner(std::move(spec)), std::move(policy),
                        std::move(metric)});
  return cells_.size() - 1;
}

void BatchRunner::add_grid(const ScenarioSpec& spec,
                           const std::vector<PolicyFactory>& policies) {
  for (const PolicyFactory& policy : policies) add(spec, policy);
}

std::vector<ScenarioResult> BatchRunner::run(const CellDone& on_cell_done) {
  return fan_out(cells_, on_cell_done);
}

std::size_t BatchRunner::add_stream(StreamSpec spec, PolicyFactory policy) {
  stream_cells_.push_back(StreamCell{StreamRunner(std::move(spec)), std::move(policy)});
  return stream_cells_.size() - 1;
}

void BatchRunner::add_stream_grid(const StreamSpec& spec,
                                  const std::vector<PolicyFactory>& policies) {
  for (const PolicyFactory& policy : policies) add_stream(spec, policy);
}

std::vector<StreamResult> BatchRunner::run_streams(const StreamCellDone& on_cell_done) {
  return fan_out(stream_cells_, on_cell_done);
}

}  // namespace rdcn

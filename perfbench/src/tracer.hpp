#pragma once

// Outside-in tracing for the benchmark's traced runs. Every span is opened
// by benchmark code around a call into one layer's public interface (a
// policy decorator, the traffic-source decorator, the retirement sink, or
// the drive loop's own calls into Engine / net / workload / traffic), so
// the library itself carries no instrumentation. Spans nest on a fixed-depth
// stack: a span's self time is its duration minus the durations of the
// spans opened inside it, so self times partition the traced wall clock.
//
// Per operation the tracer keeps exact call counts, the self-time total,
// and a log-bucket histogram of per-call self time. Raw spans go to
// a bounded in-memory buffer that is written once, at the end, in
// util/trace's Chrome trace-event format.

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/policy.hpp"
#include "traffic/source.hpp"
#include "util/stats.hpp"
#include "util/trace.hpp"

namespace perfbench {

/// Process CPU seconds, all threads.
double cpu_seconds();

inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Every span kind the benchmark records, named after the layer whose
/// public call it wraps.
enum class Op : std::uint8_t {
  NetBuild,            ///< net/: make_topology
  WorkloadGenerate,    ///< workload/: generate_workload (ScenarioRunner::instance)
  TrafficCalibrate,    ///< traffic/: calibrate_rate
  TrafficNext,         ///< traffic/: TrafficSource::next
  RunSetup,            ///< run/: policy construction, engine and source construction
  RunStep,             ///< run/: one drive-loop iteration (keyed by step number)
  RunStageEntry,       ///< run/: stage edge (mutation, re-calibration, new source)
  RunSink,             ///< run/: the retirement callback
  SimEngineRun,        ///< sim/: Engine::run (batch)
  SimBeginStep,        ///< sim/: Engine::begin_step
  SimInject,           ///< sim/: Engine::inject
  SimFinishStep,       ///< sim/: Engine::finish_step
  SimMutation,         ///< sim/: Engine::apply_mutation
  CoreDispatch,        ///< core/: ImpactDispatcher::dispatch
  CoreSelect,          ///< core/: StableMatchingScheduler::select
  BaselineDispatch,    ///< baseline/: JsqDispatcher::dispatch
  MaxWeightSelect,     ///< baseline/ + match/: MaxWeightScheduler::select
  FifoSelect,          ///< baseline/: FifoScheduler::select
  kCount,
};
inline constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kCount);

/// Static span name of an op (Chrome trace "name").
const char* op_name(Op op);

struct OpStats {
  std::uint64_t calls = 0;
  std::uint64_t self_ns = 0;  ///< exclusive of nested spans
  rdcn::LatencyHistogram self_hist{5};
};

class Tracer {
 public:
  /// `event_capacity` raw spans are kept for the Chrome trace (the first
  /// ones recorded); later spans still count and time but are not kept.
  explicit Tracer(std::size_t event_capacity);

  void open(Op op) {
    Frame& frame = stack_[depth_++];
    frame.op = op;
    frame.child_ns = 0;
    frame.start_ns = wall_ns();
  }
  void close() {
    const std::uint64_t end = wall_ns();
    const Frame& frame = stack_[--depth_];
    const std::uint64_t duration = end - frame.start_ns;
    const std::uint64_t self = duration - frame.child_ns;
    if (depth_ > 0) stack_[depth_ - 1].child_ns += duration;
    OpStats& stats = ops_[static_cast<std::size_t>(frame.op)];
    ++stats.calls;
    stats.self_ns += self;
    stats.self_hist.add(static_cast<std::int64_t>(self));
    record(frame, duration);
  }

  /// Keys the next RunStep span by the engine step it drives.
  void key_step(std::int64_t step) { pending_step_key_ = step; }

  const OpStats& op(Op which) const { return ops_[static_cast<std::size_t>(which)]; }

  /// Scheduling-round observations made by the select decorator.
  void note_round(std::size_t candidates, std::size_t in_flight, std::size_t chunks) {
    ++rounds_;
    candidates_sum_ += candidates;
    if (candidates > candidates_max_) candidates_max_ = candidates;
    backlog_sum_ += in_flight;
    chunks_sum_ += chunks;
  }
  std::uint64_t rounds() const noexcept { return rounds_; }
  std::uint64_t candidates_sum() const noexcept { return candidates_sum_; }
  std::uint64_t candidates_max() const noexcept { return candidates_max_; }
  std::uint64_t backlog_sum() const noexcept { return backlog_sum_; }
  std::uint64_t chunks_sum() const noexcept { return chunks_sum_; }

  /// Per-step sim self time: begin_step + finish_step self, one sample per
  /// drive-loop step (stream units only).
  rdcn::LatencyHistogram& step_self_hist() { return step_self_hist_; }
  const rdcn::LatencyHistogram& step_self_hist() const { return step_self_hist_; }

  /// Folds another tracer's statistics in (raw spans are not merged).
  void merge(const Tracer& other);

  /// Chrome trace of the kept spans; otherData carries the step number of
  /// every RunStep span, in trace order, and the count of spans not kept.
  std::string chrome_trace_json() const;

 private:
  struct Frame {
    Op op = Op::RunStep;
    std::uint64_t start_ns = 0;
    std::uint64_t child_ns = 0;
  };

  void record(const Frame& frame, std::uint64_t duration) {
    if (events_.size() == event_capacity_) {
      ++dropped_events_;
      return;
    }
    events_.push_back({op_name(frame.op), frame.start_ns - epoch_ns_, duration,
                       static_cast<std::uint32_t>(depth_)});
    if (frame.op == Op::RunStep) step_keys_.push_back(pending_step_key_);
  }

  std::array<Frame, 16> stack_{};
  std::size_t depth_ = 0;
  std::array<OpStats, kNumOps> ops_{};
  std::size_t event_capacity_;
  std::vector<rdcn::trace::TraceEvent> events_;
  std::vector<std::int64_t> step_keys_;
  std::uint64_t dropped_events_ = 0;
  std::uint64_t epoch_ns_ = 0;
  std::int64_t pending_step_key_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t candidates_sum_ = 0;
  std::uint64_t candidates_max_ = 0;
  std::uint64_t backlog_sum_ = 0;
  std::uint64_t chunks_sum_ = 0;
  rdcn::LatencyHistogram step_self_hist_{5};
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, Op op) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->open(op);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

/// Forwarding dispatcher that times each call.
class TracedDispatcher final : public rdcn::DispatchPolicy {
 public:
  TracedDispatcher(std::unique_ptr<rdcn::DispatchPolicy> inner, Tracer* tracer, Op op)
      : inner_(std::move(inner)), tracer_(tracer), op_(op) {}
  rdcn::RouteDecision dispatch(const rdcn::Engine& engine,
                               const rdcn::Packet& packet) override;

 private:
  std::unique_ptr<rdcn::DispatchPolicy> inner_;
  Tracer* tracer_;
  Op op_;
};

/// Forwarding scheduler that times each call and records the round's
/// candidate-list length, backlog and selection size. `plant_ns` > 0 adds
/// a fixed busy-wait inside the timed call: the planted slowdown of the
/// benchmark's self-test (a null tracer then only spins).
class TracedScheduler final : public rdcn::SchedulePolicy {
 public:
  TracedScheduler(std::unique_ptr<rdcn::SchedulePolicy> inner, Tracer* tracer, Op op,
                  std::uint64_t plant_ns)
      : inner_(std::move(inner)), tracer_(tracer), op_(op), plant_ns_(plant_ns) {}
  void select(const rdcn::Engine& engine, rdcn::Time now,
              const std::vector<rdcn::Candidate>& candidates,
              rdcn::Selection& out) override;

 private:
  std::unique_ptr<rdcn::SchedulePolicy> inner_;
  Tracer* tracer_;
  Op op_;
  std::uint64_t plant_ns_;
};

/// Forwarding traffic source that times each next().
class TracedSource final : public rdcn::TrafficSource {
 public:
  TracedSource(std::unique_ptr<rdcn::TrafficSource> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  std::optional<rdcn::Packet> next() override;

 private:
  std::unique_ptr<rdcn::TrafficSource> inner_;
  Tracer* tracer_;
};

/// Busy-waits for `ns` nanoseconds of wall time.
void spin_for(std::uint64_t ns);

}  // namespace perfbench

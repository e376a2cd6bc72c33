#include "tracer.hpp"

#include <ctime>

#include "sim/engine.hpp"

namespace perfbench {

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

const char* op_name(Op op) {
  switch (op) {
    case Op::NetBuild: return "net.build";
    case Op::WorkloadGenerate: return "workload.generate";
    case Op::TrafficCalibrate: return "traffic.calibrate";
    case Op::TrafficNext: return "traffic.next";
    case Op::RunSetup: return "run.setup";
    case Op::RunStep: return "run.step";
    case Op::RunStageEntry: return "run.stage_entry";
    case Op::RunSink: return "run.sink";
    case Op::SimEngineRun: return "sim.engine_run";
    case Op::SimBeginStep: return "sim.begin_step";
    case Op::SimInject: return "sim.inject";
    case Op::SimFinishStep: return "sim.finish_step";
    case Op::SimMutation: return "sim.apply_mutation";
    case Op::CoreDispatch: return "core.dispatch";
    case Op::CoreSelect: return "core.select";
    case Op::BaselineDispatch: return "baseline.dispatch";
    case Op::MaxWeightSelect: return "baseline.maxweight.select";
    case Op::FifoSelect: return "baseline.fifo.select";
    case Op::kCount: break;
  }
  return "unknown";
}

Tracer::Tracer(std::size_t event_capacity)
    : event_capacity_(event_capacity), epoch_ns_(wall_ns()) {
  events_.reserve(event_capacity_);
  step_keys_.reserve(event_capacity_);
}

void Tracer::merge(const Tracer& other) {
  for (std::size_t i = 0; i < kNumOps; ++i) {
    ops_[i].calls += other.ops_[i].calls;
    ops_[i].self_ns += other.ops_[i].self_ns;
    ops_[i].self_hist.merge(other.ops_[i].self_hist);
  }
  rounds_ += other.rounds_;
  candidates_sum_ += other.candidates_sum_;
  if (other.candidates_max_ > candidates_max_) candidates_max_ = other.candidates_max_;
  backlog_sum_ += other.backlog_sum_;
  chunks_sum_ += other.chunks_sum_;
  step_self_hist_.merge(other.step_self_hist_);
}

std::string Tracer::chrome_trace_json() const {
  rdcn::json::Array keys;
  keys.reserve(step_keys_.size());
  for (const std::int64_t key : step_keys_) keys.emplace_back(key);
  rdcn::json::Object other;
  other.emplace_back("step_span_keys", rdcn::json::Value(std::move(keys)));
  other.emplace_back("spans_not_kept",
                     rdcn::json::Value(static_cast<std::int64_t>(dropped_events_)));
  return rdcn::trace::chrome_trace_json(events_, std::move(other));
}

rdcn::RouteDecision TracedDispatcher::dispatch(const rdcn::Engine& engine,
                                               const rdcn::Packet& packet) {
  Scope scope(tracer_, op_);
  return inner_->dispatch(engine, packet);
}

void TracedScheduler::select(const rdcn::Engine& engine, rdcn::Time now,
                             const std::vector<rdcn::Candidate>& candidates,
                             rdcn::Selection& out) {
  {
    Scope scope(tracer_, op_);
    inner_->select(engine, now, candidates, out);
    if (plant_ns_ > 0) spin_for(plant_ns_);
  }
  if (tracer_ != nullptr) tracer_->note_round(candidates.size(), engine.in_flight(), out.size());
}

std::optional<rdcn::Packet> TracedSource::next() {
  Scope scope(tracer_, Op::TrafficNext);
  return inner_->next();
}

void spin_for(std::uint64_t ns) {
  const std::uint64_t until = wall_ns() + ns;
  while (wall_ns() < until) {
  }
}

}  // namespace perfbench

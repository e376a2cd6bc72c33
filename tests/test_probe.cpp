// The observability layer's own contracts (ISSUE 7):
//  * RAII phase spans: per-phase call counts, inclusive (total) vs
//    exclusive (self) time with exact child subtraction, so the self times
//    partition the instrumented wall clock;
//  * the raw-span ring: pre-sized, drop-oldest on overflow with the
//    discards counted in Counter::DroppedEvents, chronological read-out;
//  * Chrome trace export: strict JSON by construction (round-trips through
//    util/json's parser), complete events only, monotone timestamps;
//  * StreamTelemetry folding: window phase_ns deltas sum back to the
//    probe's cumulative phase_self_ns;
//  * merge_report: repetition aggregation semantics (add / max / last).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "run/policies.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/probe.hpp"
#include "util/json.hpp"
#include "util/trace.hpp"

namespace rdcn {
namespace {

std::size_t index_of(Phase phase) { return static_cast<std::size_t>(phase); }
std::size_t index_of(Counter counter) { return static_cast<std::size_t>(counter); }

/// Spins until the steady clock advances, so every span has nonzero width
/// even on coarse clocks.
void burn() {
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() == start) {
  }
}

TEST(Probe, SpanSelfTimeExcludesChildrenExactly) {
  Probe probe(ProbeConfig{true, 0});
  {
    Probe::Span inject(&probe, Phase::Inject);
    burn();
    {
      Probe::Span index(&probe, Phase::IndexQuery);
      burn();
    }
    burn();
  }
  const ProbeReport report = probe.report();
  EXPECT_EQ(report.phase_calls[index_of(Phase::Inject)], 1u);
  EXPECT_EQ(report.phase_calls[index_of(Phase::IndexQuery)], 1u);
  EXPECT_EQ(report.phase_calls[index_of(Phase::Select)], 0u);
  const std::uint64_t inject_self = report.phase_self_ns[index_of(Phase::Inject)];
  const std::uint64_t inject_total = report.phase_total_ns[index_of(Phase::Inject)];
  const std::uint64_t index_total =
      report.phase_total_ns[index_of(Phase::IndexQuery)];
  // The child is the only span closed inside the parent, so the subtraction
  // is exact, not approximate: parent self + child total == parent total.
  EXPECT_EQ(inject_self + index_total, inject_total);
  EXPECT_GT(inject_self, 0u);
  EXPECT_GT(index_total, 0u);
  // Leaf spans have no children: self == total.
  EXPECT_EQ(report.phase_self_ns[index_of(Phase::IndexQuery)], index_total);
  EXPECT_EQ(report.instrumented_ns(), inject_self + index_total);
  EXPECT_GE(report.wall_ns, report.instrumented_ns());
}

TEST(Probe, NamesMatchWhatTheyTime) {
  // Suite rows spell these as phase_<name>_ns keys.
  const char* const phases[kNumPhases] = {"inject",  "index_query",    "select",
                                          "validate", "service_retire", "head_refresh"};
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    EXPECT_STREQ(to_string(static_cast<Phase>(i)), phases[i]) << i;
  }
  EXPECT_STREQ(to_string(Counter::HeadsRefreshed), "heads_refreshed");
}

TEST(Probe, NullProbeSpansAreNoOps) {
  // Instrumentation sites pass the engine's nullable pointer
  // unconditionally; a null probe must cost one branch and nothing else.
  Probe::Span outer(nullptr, Phase::Inject);
  Probe::Span inner(nullptr, Phase::Select);
  SUCCEED();
}

TEST(Probe, RingDropsOldestAndCountsDiscards) {
  Probe probe(ProbeConfig{true, 4});
  // Ten sequential top-level spans with alternating phases into a ring of
  // four: the first six are discarded (and counted), the last four survive.
  for (int i = 0; i < 10; ++i) {
    Probe::Span span(&probe, i % 2 == 0 ? Phase::Inject : Phase::Select);
    burn();
  }
  EXPECT_EQ(probe.dropped_events(), 6u);
  EXPECT_EQ(probe.counter(Counter::DroppedEvents), 6u);
  const std::vector<trace::TraceEvent> events = probe.events();
  ASSERT_EQ(events.size(), 4u);
  // Survivors are spans 6..9 (0-based), oldest first: inject, select,
  // inject, select -- and chronological (start_ns nondecreasing).
  EXPECT_STREQ(events[0].name, "inject");
  EXPECT_STREQ(events[1].name, "select");
  EXPECT_STREQ(events[2].name, "inject");
  EXPECT_STREQ(events[3].name, "select");
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start_ns, events[i - 1].start_ns) << i;
  }
}

TEST(Probe, ZeroCapacityRingKeepsAggregatesOnly) {
  Probe probe(ProbeConfig{true, 0});
  for (int i = 0; i < 5; ++i) {
    Probe::Span span(&probe, Phase::Service);
    burn();
  }
  EXPECT_EQ(probe.events().size(), 0u);
  EXPECT_EQ(probe.dropped_events(), 0u);  // no ring: nothing was ever staged
  EXPECT_EQ(probe.report().phase_calls[index_of(Phase::Service)], 5u);
}

TEST(Probe, ChromeTraceRoundTripsAsStrictJson) {
  Probe probe(ProbeConfig{true, 64});
  probe.count(Counter::Rounds, 3);
  probe.gauge(Gauge::InFlight, 7);
  for (int i = 0; i < 3; ++i) {
    Probe::Span outer(&probe, Phase::Inject);
    burn();
    Probe::Span inner(&probe, Phase::IndexQuery);
    burn();
  }
  const std::string text = probe.chrome_trace_json(1);
  // util/json's parser is strict (RFC 8259, duplicate keys rejected): a
  // successful parse is the validity proof.
  const json::Value document = json::parse(text);
  ASSERT_TRUE(document.is_object());
  const json::Value* unit = document.find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->as_string(), "ms");
  const json::Value* events = document.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->as_array().size(), 6u);  // 3 parents + 3 children
  double last_ts = -1.0;
  for (const json::Value& event : events->as_array()) {
    const json::Value* ph = event.find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->as_string(), "X");  // complete events only
    ASSERT_NE(event.find("name"), nullptr);
    ASSERT_NE(event.find("dur"), nullptr);
    const json::Value* ts = event.find("ts");
    ASSERT_NE(ts, nullptr);
    EXPECT_GE(ts->as_number(), last_ts) << "timestamps must be monotone";
    last_ts = ts->as_number();
  }
  // The registry rides along under otherData.probe.
  const json::Value* other = document.find("otherData");
  ASSERT_NE(other, nullptr);
  const json::Value* report = other->find("probe");
  ASSERT_NE(report, nullptr);
  const json::Value* counters = report->find("counters");
  ASSERT_NE(counters, nullptr);
  const json::Value* rounds = counters->find("rounds");
  ASSERT_NE(rounds, nullptr);
  EXPECT_EQ(rounds->as_number(), 3.0);
}

TEST(Trace, ParentsPrecedeChildrenRegardlessOfInputOrder) {
  // The probe's ring is completion-ordered (children close before their
  // parents); the exporter must re-sort by (start asc, duration desc) so
  // viewers nest by containment and ts stays monotone.
  std::vector<trace::TraceEvent> events;
  events.push_back({"child", 1500, 200, 1});
  events.push_back({"parent", 1000, 2000, 0});
  events.push_back({"early", 500, 100, 0});
  const json::Value document = trace::chrome_trace(std::move(events));
  const json::Value* list = document.find("traceEvents");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->as_array().size(), 3u);
  EXPECT_EQ(list->as_array()[0].find("name")->as_string(), "early");
  EXPECT_EQ(list->as_array()[1].find("name")->as_string(), "parent");
  EXPECT_EQ(list->as_array()[2].find("name")->as_string(), "child");
}

TEST(Probe, EngineRunPopulatesCoherentReport) {
  const Instance instance = testing::make_varied_instance(101);
  const PolicyFactory policy = named_policy("alg");
  auto dispatcher = policy.dispatcher();
  auto scheduler = policy.scheduler(instance.topology());
  EngineOptions options;
  options.probe.enabled = true;
  options.probe.event_capacity = 256;
  const RunResult run = simulate(instance, *dispatcher, *scheduler, options);
  const ProbeReport& probe = run.probe;
  ASSERT_TRUE(probe.enabled);
  const auto packets = static_cast<std::uint64_t>(instance.num_packets());
  EXPECT_EQ(probe.counters[index_of(Counter::PacketsDispatched)], packets);
  EXPECT_EQ(probe.counters[index_of(Counter::PacketsRetired)], packets);
  EXPECT_GT(probe.counters[index_of(Counter::Rounds)], 0u);
  EXPECT_GT(probe.counters[index_of(Counter::ChunksTransmitted)], 0u);
  EXPECT_GT(probe.phase_calls[index_of(Phase::Select)], 0u);
  EXPECT_GT(probe.phase_calls[index_of(Phase::Service)], 0u);
  // One inject span per packet; the head refresh re-reads at least one
  // head per refresh.
  EXPECT_EQ(probe.phase_calls[index_of(Phase::Inject)], packets);
  EXPECT_GT(probe.phase_calls[index_of(Phase::HeadRefresh)], 0u);
  EXPECT_GE(probe.counters[index_of(Counter::HeadsRefreshed)],
            probe.phase_calls[index_of(Phase::HeadRefresh)]);
  EXPECT_GE(probe.wall_ns, probe.instrumented_ns());
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    EXPECT_GE(probe.phase_total_ns[i], probe.phase_self_ns[i]) << i;
  }
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    EXPECT_GE(probe.gauge_max[i], probe.gauge_last[i]) << i;
  }
  // A probe-off run leaves the default-constructed (disabled, all-zero)
  // report in place.
  const RunResult off = simulate(instance, *dispatcher, *scheduler, {});
  EXPECT_FALSE(off.probe.enabled);
  EXPECT_EQ(off.probe.counters[index_of(Counter::Rounds)], 0u);
}

TEST(Probe, TelemetryWindowsPartitionPhaseTime) {
  Probe probe(ProbeConfig{true, 0});
  StreamTelemetry telemetry(2);  // two steps per window
  for (int step = 0; step < 5; ++step) {
    {
      Probe::Span span(&probe, Phase::Select);
      burn();
    }
    telemetry.on_step(static_cast<Time>(step + 1), 0, 0, 0, &probe);
  }
  const std::vector<StreamWindow>& windows = telemetry.finish();
  ASSERT_EQ(windows.size(), 3u);  // 2 + 2 + trailing partial 1
  std::uint64_t folded = 0;
  for (const StreamWindow& window : windows) {
    folded += window.phase_ns[index_of(Phase::Select)];
    EXPECT_EQ(window.phase_ns[index_of(Phase::Inject)], 0u);
  }
  // The window deltas partition the probe's cumulative self time exactly.
  EXPECT_EQ(folded, probe.report().phase_self_ns[index_of(Phase::Select)]);
  EXPECT_GT(folded, 0u);
}

TEST(Probe, MergeReportAddsTimesMaxesGauges) {
  ProbeReport a, b;
  a.enabled = true;
  a.phase_self_ns[0] = 100;
  a.phase_total_ns[0] = 150;
  a.phase_calls[0] = 2;
  a.counters[0] = 5;
  a.gauge_last[0] = 3;
  a.gauge_max[0] = 9;
  a.wall_ns = 1000;
  b.enabled = true;
  b.phase_self_ns[0] = 40;
  b.phase_total_ns[0] = 60;
  b.phase_calls[0] = 1;
  b.counters[0] = 7;
  b.gauge_last[0] = 4;
  b.gauge_max[0] = 6;
  b.wall_ns = 500;
  ProbeReport merged;
  merge_report(merged, a);
  merge_report(merged, b);
  EXPECT_TRUE(merged.enabled);
  EXPECT_EQ(merged.phase_self_ns[0], 140u);
  EXPECT_EQ(merged.phase_total_ns[0], 210u);
  EXPECT_EQ(merged.phase_calls[0], 3u);
  EXPECT_EQ(merged.counters[0], 12u);
  EXPECT_EQ(merged.gauge_last[0], 4u);  // last merge wins
  EXPECT_EQ(merged.gauge_max[0], 9u);   // high-water across repetitions
  EXPECT_EQ(merged.wall_ns, 1500u);
}

}  // namespace
}  // namespace rdcn

// Tests of the declarative suite subsystem (run/suite.hpp) and the
// topology-zoo integration behind it: the strict JSON layer, parse-error
// quality (distinct, path-qualified, actionable), the normalized-form
// golden round-trip, pins of the normalized text and of an earlier
// journal, a mutation property over every gallery suite, grid expansion,
// runner output, and property tests of make_topology across the full
// extended TopologySpec grid.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "run/random.hpp"
#include "run/stream.hpp"
#include "run/suite.hpp"
#include "suite_mutations.hpp"
#include "util/json.hpp"
#include "workload/generator.hpp"

namespace rdcn {
namespace {

// --- json utility -----------------------------------------------------------

TEST(Json, ParsesScalarsAndContainers) {
  const json::Value value = json::parse(
      R"({"a": 1, "b": -2.5, "c": true, "d": null, "e": "x\n\"y\"", "f": [1, 2]})");
  ASSERT_TRUE(value.is_object());
  EXPECT_EQ(value.find("a")->as_integer(), 1);
  EXPECT_TRUE(value.find("a")->is_integer());
  EXPECT_DOUBLE_EQ(value.find("b")->as_number(), -2.5);
  EXPECT_FALSE(value.find("b")->is_integer());
  EXPECT_TRUE(value.find("c")->as_bool());
  EXPECT_TRUE(value.find("d")->is_null());
  EXPECT_EQ(value.find("e")->as_string(), "x\n\"y\"");
  EXPECT_EQ(value.find("f")->as_array().size(), 2u);
  EXPECT_EQ(value.find("missing"), nullptr);
}

TEST(Json, DumpParsesBackToItself) {
  const std::string text =
      R"({"name":"zoo","values":[1,2.5,true,null,"s"],"nested":{"k":-7}})";
  const json::Value value = json::parse(text);
  EXPECT_EQ(json::dump(value), text);
  // Pretty form reparses to the same compact form.
  EXPECT_EQ(json::dump(json::parse(json::dump(value, 2))), text);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(json::parse("{"), json::ParseError);
  EXPECT_THROW(json::parse("[1,]"), json::ParseError);
  EXPECT_THROW(json::parse("{\"a\": 1,}"), json::ParseError);
  EXPECT_THROW(json::parse("{\"a\" 1}"), json::ParseError);
  EXPECT_THROW(json::parse("01"), json::ParseError);
  EXPECT_THROW(json::parse("nul"), json::ParseError);
  EXPECT_THROW(json::parse("\"unterminated"), json::ParseError);
  EXPECT_THROW(json::parse("{} trailing"), json::ParseError);
  EXPECT_THROW(json::parse("{\"a\": 1, \"a\": 2}"), json::ParseError);  // duplicate key
}

TEST(Json, ErrorsCarryLineAndColumn) {
  try {
    json::parse("{\n  \"a\": 1,\n  \"a\": 2\n}");
    FAIL() << "expected ParseError";
  } catch (const json::ParseError& error) {
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos) << error.what();
    EXPECT_NE(std::string(error.what()).find("duplicate"), std::string::npos);
  }
}

TEST(Json, NonFiniteNumbersDumpAsNull) {
  EXPECT_EQ(json::dump(json::Value(std::nan(""))), "null");
  EXPECT_EQ(json::dump(json::Value(1.0 / 0.0)), "null");
}

TEST(Json, DoublesRoundTripBitExactAndShortest) {
  for (const double value : {0.1, 1.0 / 3.0, 0.30000000000000004, 6.02214076e23}) {
    const std::string text = json::dump(json::Value(value));
    EXPECT_EQ(json::parse(text).as_number(), value) << text;
  }
  EXPECT_EQ(json::dump(json::Value(0.1)), "0.1");  // shortest form, not %.17g
}

// --- suite parsing: positive paths ------------------------------------------

const char* kMinimalBatch = R"({
  "suite": "mini",
  "policies": ["alg"],
  "topologies": [{"kind": "crossbar", "ports": 4}],
  "workloads": [{"packets": 10, "rate": 2.0}]
})";

const char* kZooStream = R"({
  "suite": "zoo-stream",
  "mode": "stream",
  "seeds": {"base": 5, "repetitions": 2},
  "policies": ["alg", "fifo"],
  "engines": [{"name": "fast", "speedup": 2}],
  "topologies": [
    {"name": "rot", "kind": "rotor", "racks": 5, "ports": 2},
    {"name": "exp", "kind": "expander", "racks": 6, "degree": 2,
     "fixed_link_delay": 0}
  ],
  "traffic": [
    {"name": "p6", "process": "poisson", "rho": 0.6},
    {"name": "oo", "process": "onoff", "rho": 0.9, "on_stay": 0.85}
  ],
  "stream": {"warmup": 50, "measure": 400, "window": 64, "step_cap_factor": 3.0}
})";

TEST(SuiteParse, MinimalBatchDefaults) {
  const SuiteSpec suite = parse_suite(kMinimalBatch);
  EXPECT_EQ(suite.name, "mini");
  EXPECT_EQ(suite.mode, SuiteSpec::Mode::Batch);
  EXPECT_EQ(suite.base_seed, 1u);
  EXPECT_EQ(suite.repetitions, 3u);
  ASSERT_EQ(suite.engines.size(), 1u);  // default engine materialized
  EXPECT_EQ(suite.engines[0].label, "s1c1r0");
  ASSERT_EQ(suite.topologies.size(), 1u);
  EXPECT_EQ(suite.topologies[0].label, "crossbar");  // label defaults to kind
  EXPECT_EQ(suite.topologies[0].spec.kind, TopologySpec::Kind::Crossbar);
  EXPECT_EQ(suite.topologies[0].spec.crossbar_ports, 4);
  ASSERT_EQ(suite.workloads.size(), 1u);
  EXPECT_EQ(suite.workloads[0].config.num_packets, 10u);
}

TEST(SuiteParse, StreamSuiteFullGrid) {
  const SuiteSpec suite = parse_suite(kZooStream);
  EXPECT_EQ(suite.mode, SuiteSpec::Mode::Stream);
  EXPECT_EQ(suite.base_seed, 5u);
  EXPECT_EQ(suite.warmup_packets, 50u);
  EXPECT_EQ(suite.measure_packets, 400u);
  ASSERT_EQ(suite.traffic.size(), 2u);
  EXPECT_EQ(suite.traffic[1].config.process, ArrivalProcess::OnOff);
  EXPECT_DOUBLE_EQ(suite.traffic[1].config.on_stay, 0.85);

  const std::vector<StreamSpec> grid = suite_stream_grid(suite);
  ASSERT_EQ(grid.size(), 2u * 2u * 1u);
  EXPECT_EQ(grid[0].name, "zoo-stream/rot/p6/fast");
  // The engine's speedup propagates into the traffic calibration.
  EXPECT_EQ(grid[0].traffic.speedup_rounds, 2);
  EXPECT_EQ(grid[0].engine.speedup_rounds, 2);
  EXPECT_EQ(grid[3].name, "zoo-stream/exp/oo/fast");
}

TEST(SuiteParse, ProfileKeyEnablesTheEngineProbe) {
  // ISSUE 7: the "profile" engine key switches on the probe (aggregates
  // only; the event ring stays with rdcn_cli profile) and survives the
  // normalize -> reparse round trip like every other engine key.
  const SuiteSpec suite = parse_suite(R"({
    "suite": "probed",
    "policies": ["alg"],
    "engines": [{"profile": true}],
    "topologies": [{"kind": "crossbar", "ports": 4}],
    "workloads": [{"packets": 10, "rate": 2.0}]
  })");
  ASSERT_EQ(suite.engines.size(), 1u);
  EXPECT_TRUE(suite.engines[0].options.probe.enabled);
  EXPECT_EQ(suite.engines[0].label, "s1c1r0-profile");
  const std::string normalized = suite_to_json(suite);
  EXPECT_NE(normalized.find("\"profile\": true"), std::string::npos) << normalized;
  const SuiteSpec reparsed = parse_suite(normalized);
  ASSERT_EQ(reparsed.engines.size(), 1u);
  EXPECT_TRUE(reparsed.engines[0].options.probe.enabled);
  EXPECT_EQ(suite_to_json(reparsed), normalized);
}

const char* kStagedStream = R"({
  "suite": "staged",
  "mode": "stream",
  "policies": ["alg"],
  "topologies": [{"kind": "two_tier", "racks": 5}],
  "traffic": [{"rho": 0.6}],
  "stream": {"warmup": 50, "measure": 400},
  "stages": [
    {"duration": 60},
    {"duration": 60, "kill_edges": [1, 2], "kill_racks": [0],
     "dead": "requeue", "rho": 0.4, "speedup": 2},
    {"duration": 0, "restore_edges": [1, 2], "restore_racks": [0]}
  ]
})";

TEST(SuiteParse, StagesParseIntoEveryStreamCell) {
  const SuiteSpec suite = parse_suite(kStagedStream);
  ASSERT_EQ(suite.stages.size(), 3u);
  EXPECT_EQ(suite.stages[0].duration, 60);
  EXPECT_DOUBLE_EQ(suite.stages[0].rho, -1.0);  // inherit
  EXPECT_TRUE(suite.stages[0].mutation.is_noop());
  EXPECT_EQ(suite.stages[1].mutation.kill_edges, (std::vector<EdgeIndex>{1, 2}));
  EXPECT_EQ(suite.stages[1].mutation.kill_racks, (std::vector<NodeIndex>{0}));
  EXPECT_EQ(suite.stages[1].mutation.dead_policy, DeadPolicy::Requeue);
  EXPECT_EQ(suite.stages[1].mutation.speedup_rounds, 2);
  EXPECT_DOUBLE_EQ(suite.stages[1].rho, 0.4);
  EXPECT_EQ(suite.stages[2].duration, 0);
  EXPECT_EQ(suite.stages[2].mutation.restore_edges, (std::vector<EdgeIndex>{1, 2}));
  // The schedule is copied into every expanded grid cell.
  const std::vector<StreamSpec> grid = suite_stream_grid(suite);
  ASSERT_EQ(grid.size(), 1u);
  ASSERT_EQ(grid[0].stages.size(), 3u);
  EXPECT_EQ(grid[0].stages[1].mutation.kill_edges.size(), 2u);
}

TEST(SuiteParse, StandaloneStagesDocumentMatchesTheSuiteKey) {
  const std::vector<StageSpec> stages = parse_stages_json(R"([
    {"duration": 10},
    {"duration": 0, "kill_edges": [0], "dead": "drop"}
  ])");
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[1].mutation.kill_edges, (std::vector<EdgeIndex>{0}));
  EXPECT_EQ(stages[1].mutation.dead_policy, DeadPolicy::Drop);
  EXPECT_THROW(load_stages_file("/nonexistent/stages.json"), SuiteError);
}

TEST(SuiteParse, GoldenRoundTripIsAFixpoint) {
  for (const char* text : {kMinimalBatch, kZooStream, kStagedStream}) {
    const SuiteSpec suite = parse_suite(text);
    const std::string normalized = suite_to_json(suite);
    const SuiteSpec reparsed = parse_suite(normalized);
    EXPECT_EQ(suite_to_json(reparsed), normalized);
    // The round trip preserves the expanded grid cell for cell.
    if (suite.mode == SuiteSpec::Mode::Batch) {
      const auto a = suite_batch_grid(suite);
      const auto b = suite_batch_grid(reparsed);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].name, b[i].name);
    }
  }
}

// --- suite parsing: negative paths ------------------------------------------

/// Expects parse_suite(text) to throw a SuiteError whose path equals
/// `path` and whose message mentions `needle`.
void expect_suite_error(const std::string& text, const std::string& path,
                        const std::string& needle) {
  try {
    parse_suite(text);
    FAIL() << "expected SuiteError(" << path << ")";
  } catch (const SuiteError& error) {
    EXPECT_EQ(error.path(), path) << error.what();
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << "message: " << error.what() << "\nwanted: " << needle;
  }
}

TEST(SuiteParse, MalformedJsonReportsPosition) {
  expect_suite_error("{\"suite\": \"x\",,}", "", "malformed JSON");
  expect_suite_error("{\"suite\": \"x\",,}", "", "line 1");
  expect_suite_error("", "", "malformed JSON");
}

TEST(SuiteParse, UnknownKeysAreRejectedWithTheAcceptedList) {
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "crossbar", "ports": 4, "portz": 5}],
    "workloads": [{"packets": 10}]
  })", "topologies[0].portz", "unknown key");
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "crossbar"}],
    "workloads": [{"packets": 10, "packet": 1}]
  })", "workloads[0].packet", "accepts");
  // Kind-specific keys of another kind are unknown too.
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "rotor", "racks": 4, "density": 0.5}],
    "workloads": [{"packets": 10}]
  })", "topologies[0].density", "unknown key");
}

TEST(SuiteParse, OutOfRangeValuesNameThePathAndRange) {
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "two_tier", "density": 1.5}],
    "workloads": [{"packets": 10}]
  })", "topologies[0].density", "out of range [0, 1]");
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "crossbar", "ports": 1}],
    "workloads": [{"packets": 10}]
  })", "topologies[0].ports", "out of range");
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "expander", "racks": 4, "degree": 5}],
    "workloads": [{"packets": 10}]
  })", "topologies[0].degree", "exceeds racks - 1");
  expect_suite_error(R"({
    "suite": "x", "seeds": {"repetitions": 0}, "policies": ["alg"],
    "topologies": [{"kind": "crossbar"}], "workloads": [{"packets": 10}]
  })", "seeds.repetitions", "out of range");
}

TEST(SuiteParse, TypeMismatchesNameTheFoundType) {
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "crossbar", "ports": "eight"}],
    "workloads": [{"packets": 10}]
  })", "topologies[0].ports", "expected an integer, found string");
  expect_suite_error(R"({
    "suite": "x", "policies": "alg",
    "topologies": [{"kind": "crossbar"}], "workloads": [{"packets": 10}]
  })", "policies", "expected an array, found string");
}

TEST(SuiteParse, BadEnumsListTheKnownValues) {
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "torus"}],
    "workloads": [{"packets": 10}]
  })", "topologies[0].kind", "two_tier crossbar oversubscribed expander rotor");
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "crossbar"}],
    "workloads": [{"packets": 10, "skew": "ziggurat"}]
  })", "workloads[0].skew", "known:");
}

TEST(SuiteParse, UnknownPoliciesListTheRegistry) {
  expect_suite_error(R"({
    "suite": "x", "policies": ["algg"],
    "topologies": [{"kind": "crossbar"}], "workloads": [{"packets": 10}]
  })", "policies[0]", "registry:");
}

TEST(SuiteParse, MissingRequiredKeys) {
  expect_suite_error(R"({"policies": ["alg"], "topologies": [{"kind": "crossbar"}],
                         "workloads": [{}]})",
                     "suite", "required key is missing");
  expect_suite_error(R"({"suite": "x", "policies": ["alg"],
                         "workloads": [{}]})",
                     "topologies", "required key is missing");
  expect_suite_error(R"({"suite": "x", "policies": ["alg"],
                         "topologies": [{"kind": "crossbar"}]})",
                     "workloads", "required key is missing");
  expect_suite_error(R"({"suite": "x", "policies": ["alg"],
                         "topologies": [{"ports": 4}],
                         "workloads": [{"packets": 5}]})",
                     "topologies[0].kind", "required key is missing");
}

TEST(SuiteParse, WrongModeAxesAreActionable) {
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "crossbar"}],
    "workloads": [{"packets": 10}],
    "traffic": [{"rho": 0.5}]
  })", "traffic", "only valid when mode is \"stream\"");
  expect_suite_error(R"({
    "suite": "x", "mode": "stream", "policies": ["alg"],
    "topologies": [{"kind": "crossbar"}],
    "traffic": [{"rho": 0.5}],
    "stream": {"warmup": 1},
    "workloads": [{"packets": 10}]
  })", "workloads", "only valid when mode is \"batch\"");
}

TEST(SuiteParse, StageErrorsNameTheExactPath) {
  // Stages are a stream-mode axis.
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "crossbar"}],
    "workloads": [{"packets": 10}],
    "stages": [{"duration": 5}]
  })", "stages", "only valid when mode is \"stream\"");
  const std::string stream_prefix = R"({
    "suite": "x", "mode": "stream", "policies": ["alg"],
    "topologies": [{"kind": "crossbar"}],
    "traffic": [{"rho": 0.5}],
    "stream": {"measure": 100},)";
  expect_suite_error(stream_prefix + R"("stages": []})",
                     "stages", "at least one stage");
  expect_suite_error(stream_prefix + R"("stages": [{"duration": 0}, {"duration": 5}]})",
                     "stages[0].duration", "last stage only");
  expect_suite_error(stream_prefix + R"("stages": [{"duration": 5, "rho": -0.3}]})",
                     "stages[0].rho", "must be positive");
  expect_suite_error(stream_prefix + R"("stages": [{"duration": 5, "kill_edges": [-1]}]})",
                     "stages[0].kill_edges[0]", "out of range");
  expect_suite_error(stream_prefix + R"("stages": [{"duration": 5, "dead": "panic"}]})",
                     "stages[0].dead", "known:");
  expect_suite_error(stream_prefix + R"("stages": [{"duration": 5, "durration": 6}]})",
                     "stages[0].durration", "unknown key");
}

TEST(SuiteParse, CrossFieldConstraints) {
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "engines": [{"capacity": 2, "reconfig_delay": 1}],
    "topologies": [{"kind": "crossbar"}], "workloads": [{"packets": 10}]
  })", "engines[0].reconfig_delay", "requires capacity == 1");
  // The same rule across records: a stage may not raise capacity under an
  // engine with a reconfiguration delay (it would fail every cell at run
  // time instead).
  expect_suite_error(R"({
    "suite": "x", "mode": "stream", "policies": ["alg"],
    "engines": [{"name": "slow", "reconfig_delay": 2}],
    "topologies": [{"kind": "crossbar"}], "traffic": [{"rho": 0.5}],
    "stages": [{"duration": 5}, {"duration": 0, "capacity": 2}]
  })", "stages[1].capacity", "engine \"slow\" has reconfig_delay 2");
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg", "alg"],
    "topologies": [{"kind": "crossbar"}], "workloads": [{"packets": 10}]
  })", "policies[1]", "duplicate policy");
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "crossbar"}, {"kind": "crossbar", "ports": 6}],
    "workloads": [{"packets": 10}]
  })", "topologies[1].name", "duplicate label");
  expect_suite_error(R"({
    "suite": "x", "policies": ["alg"],
    "topologies": [{"kind": "crossbar", "name": "a/b"}],
    "workloads": [{"packets": 10}]
  })", "topologies[0].name", "may not contain '/'");
  // The suite name prefixes every cell name, so it obeys the same rule.
  expect_suite_error(R"({
    "suite": "x/y", "policies": ["alg"],
    "topologies": [{"kind": "crossbar"}],
    "workloads": [{"packets": 10}]
  })", "suite", "may not contain '/'");
}

TEST(SuiteParse, DistinctFailuresProduceDistinctMessages) {
  // One representative per failure class; all six must differ pairwise.
  const std::vector<std::string> inputs = {
      "{\"suite\": ",  // malformed
      R"({"suite": "x", "policies": ["alg"], "topologies": [{"kind": "xbar"}],
          "workloads": [{}]})",  // bad enum
      R"({"suite": "x", "policies": ["alg"], "topologies": [{"kind": "crossbar",
          "portz": 1}], "workloads": [{}]})",  // unknown key
      R"({"suite": "x", "policies": ["alg"], "topologies": [{"kind": "crossbar",
          "ports": 9999}], "workloads": [{}]})",  // out of range
      R"({"suite": "x", "policies": ["alg"], "topologies": [{"kind": "crossbar",
          "ports": true}], "workloads": [{}]})",  // type mismatch
      R"({"suite": "x", "policies": ["alg"], "topologies": [{"kind":
          "crossbar"}]})",  // missing axis
  };
  std::set<std::string> messages;
  for (const std::string& text : inputs) {
    try {
      parse_suite(text);
      FAIL() << "expected SuiteError for: " << text;
    } catch (const SuiteError& error) {
      messages.insert(error.what());
    }
  }
  EXPECT_EQ(messages.size(), inputs.size());
}

TEST(SuiteParse, LoadFileReportsMissingFiles) {
  EXPECT_THROW(load_suite_file("/nonexistent/suite.json"), SuiteError);
}

// --- grid expansion and runner ----------------------------------------------

std::string journal_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

/// Wall-clock fields are measurements, not results: two runs of the same
/// cell agree on every metric but never on wall_ms, so cross-run row
/// comparisons strip it first (same convention as the check.sh smokes).
std::string strip_wall(std::string row) {
  const std::string key = "\"wall_ms\":";
  const std::size_t at = row.find(key);
  if (at == std::string::npos) return row;
  std::size_t end = row.find_first_of(",}", at + key.size());
  if (end != std::string::npos && row[end] == ',') ++end;
  row.erase(at, end - at);
  return row;
}

std::vector<std::string> strip_wall(std::vector<std::string> rows) {
  for (std::string& row : rows) row = strip_wall(std::move(row));
  return rows;
}

TEST(SuiteRun, BatchLinesAreValidBenchReportJson) {
  SuiteSpec suite = parse_suite(R"({
    "suite": "smoke",
    "seeds": {"base": 1, "repetitions": 2},
    "policies": ["alg", "fifo"],
    "topologies": [
      {"kind": "crossbar", "ports": 4},
      {"name": "rot", "kind": "rotor", "racks": 4}
    ],
    "workloads": [{"packets": 12, "rate": 3.0}]
  })");
  const SuiteRunner runner(suite);
  EXPECT_EQ(runner.grid_cells(), 2u);
  EXPECT_EQ(runner.cells(), 4u);
  ASSERT_EQ(runner.cell_names().size(), 4u);
  EXPECT_EQ(runner.cell_names()[0], "smoke/crossbar/uniform/s1c1r0 x alg");

  const std::vector<std::string> lines = runner.run(2);
  ASSERT_EQ(lines.size(), 4u);
  for (const std::string& line : lines) {
    const json::Value parsed = json::parse(line);  // throws on invalid JSON
    EXPECT_EQ(parsed.find("bench")->as_string(), "smoke");
    EXPECT_GT(parsed.find("total_cost")->as_number(), 0.0);
    EXPECT_TRUE(parsed.find("params")->find("topology") != nullptr);
    EXPECT_EQ(parsed.find("params")->find("reps")->as_integer(), 2);
  }
  EXPECT_EQ(json::parse(lines[0]).find("name")->as_string(), "alg");
  EXPECT_EQ(json::parse(lines[1]).find("name")->as_string(), "fifo");
  EXPECT_EQ(json::parse(lines[2]).find("params")->find("kind")->as_string(), "rotor");
}

TEST(SuiteRun, StreamLinesCarryLatencyPercentiles) {
  SuiteSpec suite = parse_suite(R"({
    "suite": "stream-smoke",
    "mode": "stream",
    "seeds": {"base": 2, "repetitions": 1},
    "policies": ["alg"],
    "topologies": [{"kind": "rotor", "racks": 4, "ports": 2}],
    "traffic": [{"rho": 0.5}],
    "stream": {"warmup": 20, "measure": 300, "window": 64}
  })");
  const std::vector<std::string> lines = SuiteRunner(suite).run(1);
  ASSERT_EQ(lines.size(), 1u);
  const json::Value parsed = json::parse(lines[0]);
  EXPECT_EQ(parsed.find("params")->find("mode")->as_string(), "stream");
  EXPECT_GE(parsed.find("p95")->as_integer(), parsed.find("p50")->as_integer());
  EXPECT_GT(parsed.find("throughput")->as_number(), 0.0);
  EXPECT_EQ(parsed.find("truncated_reps")->as_integer(), 0);
}

/// Two entries on every axis (topologies, workloads or traffic, engines,
/// policies), in each mode.
const char* kFullBatchGrid = R"({
  "suite": "grid-batch",
  "seeds": {"base": 1, "repetitions": 1},
  "policies": ["alg", "fifo"],
  "engines": [{"name": "e1"}, {"name": "e2", "speedup": 2}],
  "topologies": [
    {"name": "xb", "kind": "crossbar", "ports": 4},
    {"name": "rot", "kind": "rotor", "racks": 4}
  ],
  "workloads": [
    {"name": "w1", "packets": 8, "rate": 2.0},
    {"name": "w2", "packets": 8, "rate": 2.0, "skew": "zipf"}
  ]
})";

const char* kFullStreamGrid = R"({
  "suite": "grid-stream",
  "mode": "stream",
  "seeds": {"base": 1, "repetitions": 1},
  "policies": ["alg", "fifo"],
  "engines": [{"name": "e1"}, {"name": "e2", "speedup": 2}],
  "topologies": [
    {"name": "rot", "kind": "rotor", "racks": 5, "ports": 2},
    {"name": "exp", "kind": "expander", "racks": 6, "degree": 2,
     "fixed_link_delay": 0}
  ],
  "traffic": [{"name": "t1", "rho": 0.4}, {"name": "t2", "rho": 0.6}],
  "stream": {"warmup": 10, "measure": 60, "window": 32}
})";

/// Row i names the cell cell_names()[i] and grid[i / policies] name, and
/// its labels follow topology-major, then workload or traffic, then
/// engine, then policy order; a resume from a journal that records every
/// other cell returns the rows in the same order.
template <typename Grid>
void expect_rows_follow_the_grid(const SuiteSpec& suite, const Grid& grid) {
  const bool batch = suite.mode == SuiteSpec::Mode::Batch;
  std::vector<std::string> variants;
  if (batch) {
    for (const SuiteWorkload& workload : suite.workloads) {
      variants.push_back(workload.label);
    }
  } else {
    for (const SuiteTraffic& traffic : suite.traffic) variants.push_back(traffic.label);
  }
  const SuiteRunner runner(suite);
  const std::vector<std::string> names = runner.cell_names();
  const std::size_t policies = suite.policies.size();
  ASSERT_EQ(names.size(), 16u);
  ASSERT_EQ(grid.size() * policies, names.size());
  const std::vector<std::string> rows = runner.run(2);
  ASSERT_EQ(rows.size(), names.size());
  std::size_t i = 0;
  for (const SuiteTopology& topology : suite.topologies) {
    for (const std::string& variant : variants) {
      for (const SuiteEngine& engine : suite.engines) {
        for (const std::string& policy : suite.policies) {
          const std::string scenario =
              suite.name + "/" + topology.label + "/" + variant + "/" + engine.label;
          const json::Value row = json::parse(rows[i]);
          const json::Value& params = *row.find("params");
          EXPECT_EQ(row.find("name")->as_string(), policy) << i;
          EXPECT_EQ(params.find("scenario")->as_string(), scenario) << i;
          EXPECT_EQ(params.find("topology")->as_string(), topology.label) << i;
          EXPECT_EQ(params.find(batch ? "workload" : "traffic")->as_string(), variant)
              << i;
          EXPECT_EQ(params.find("engine")->as_string(), engine.label) << i;
          EXPECT_EQ(names[i], scenario + " x " + policy);
          EXPECT_EQ(grid[i / policies].name, scenario);
          ++i;
        }
      }
    }
  }

  SuiteRunOptions options;
  options.threads = 2;
  options.journal = journal_path(suite.name + ".journal");
  runner.run(options);
  SuiteJournal partial = load_suite_journal(options.journal);
  for (std::size_t cell = 1; cell < partial.rows.size(); cell += 2) {
    partial.rows[cell].clear();
  }
  EXPECT_EQ(strip_wall(runner.run(options, &partial)), strip_wall(rows));
}

TEST(SuiteRun, GridOrderIsDeterministic) {
  const SuiteSpec suite = parse_suite(kZooStream);
  const auto names_a = SuiteRunner(suite).cell_names();
  const auto names_b = SuiteRunner(suite).cell_names();
  EXPECT_EQ(names_a, names_b);
  const std::vector<StreamSpec> grid = suite_stream_grid(suite);
  ASSERT_EQ(names_a.size(), grid.size() * suite.policies.size());

  const SuiteSpec batch = parse_suite(kFullBatchGrid);
  expect_rows_follow_the_grid(batch, suite_batch_grid(batch));
  const SuiteSpec stream = parse_suite(kFullStreamGrid);
  expect_rows_follow_the_grid(stream, suite_stream_grid(stream));
}

// --- fault tolerance, journal, resume ---------------------------------------

const char* kJournalSuite = R"({
  "suite": "journal-smoke",
  "seeds": {"base": 1, "repetitions": 2},
  "policies": ["alg", "fifo"],
  "topologies": [{"kind": "crossbar", "ports": 4}],
  "workloads": [
    {"name": "a", "packets": 12, "rate": 3.0},
    {"name": "b", "packets": 12, "rate": 3.0, "skew": "zipf"}
  ]
})";

TEST(SuiteFault, JournalRecordsEveryCellAndLoadsBack) {
  const SuiteSpec suite = parse_suite(kJournalSuite);
  const SuiteRunner runner(suite);
  SuiteRunOptions options;
  options.threads = 2;
  options.journal = journal_path("suite_roundtrip.journal");
  const std::vector<std::string> rows = runner.run(options);
  ASSERT_EQ(rows.size(), 4u);
  const SuiteJournal journal = load_suite_journal(options.journal);
  EXPECT_EQ(journal.spec_json, suite_to_json(suite));
  EXPECT_EQ(journal.rows, rows);
}

TEST(SuiteFault, ResumeSkipsRecordedCellsAndMergesBitIdentical) {
  const SuiteSpec suite = parse_suite(kJournalSuite);
  const SuiteRunner runner(suite);
  const std::vector<std::string> reference = runner.run(1);
  SuiteRunOptions options;
  options.threads = 1;
  options.journal = journal_path("suite_resume.journal");
  runner.run(options);
  // Blank two rows to fake a run killed mid-suite, then resume: only the
  // missing cells re-run and the merge is bit-identical to the reference.
  SuiteJournal partial = load_suite_journal(options.journal);
  partial.rows[1].clear();
  partial.rows[3].clear();
  const std::vector<std::string> merged = runner.run(options, &partial);
  EXPECT_EQ(strip_wall(merged), strip_wall(reference));
  // The journaled rows survive the merge verbatim -- the resumed cells'
  // rows in the output ARE the journal's bytes, not re-runs.
  EXPECT_EQ(merged[0], partial.rows[0]);
  EXPECT_EQ(merged[2], partial.rows[2]);
  // The journal on disk is complete again after the resumed run.
  EXPECT_EQ(load_suite_journal(options.journal).rows, merged);
}

TEST(SuiteFault, ResumeRefusesAForeignJournal) {
  const SuiteRunner runner(parse_suite(kJournalSuite));
  SuiteRunOptions options;
  options.threads = 1;
  options.journal = journal_path("suite_foreign.journal");
  runner.run(options);
  const SuiteJournal journal = load_suite_journal(options.journal);
  const SuiteRunner other(parse_suite(kMinimalBatch));
  SuiteRunOptions plain;
  plain.threads = 1;
  EXPECT_THROW(other.run(plain, &journal), SuiteError);
}

TEST(SuiteFault, JournalLoaderIsStrict) {
  EXPECT_THROW(load_suite_journal("/nonexistent/file.journal"), SuiteError);
  const std::string garbage = journal_path("suite_garbage.journal");
  {
    std::ofstream out(garbage);
    out << "this is not json\n";
  }
  EXPECT_THROW(load_suite_journal(garbage), SuiteError);
  const std::string untagged = journal_path("suite_untagged.journal");
  {
    std::ofstream out(untagged);
    out << R"({"x": 1})" << "\n";
  }
  EXPECT_THROW(load_suite_journal(untagged), SuiteError);
}

TEST(SuiteFault, IsolateRendersStructuredErrorRows) {
  const SuiteSpec suite = parse_suite(kJournalSuite);
  const SuiteRunner runner(suite);
  const std::vector<std::string> reference = runner.run(1);
  SuiteRunOptions options;
  options.threads = 2;
  options.policy.failure = FailurePolicy::Isolate;
  options.policy.fault_hook = [](const std::string& cell, std::size_t,
                                 const CancelToken*) {
    if (cell.find(" x fifo") != std::string::npos) {
      throw std::runtime_error("injected suite fault");
    }
  };
  const std::vector<std::string> rows = runner.run(options);
  const std::vector<std::string> names = runner.cell_names();
  ASSERT_EQ(rows.size(), names.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (names[i].find(" x fifo") != std::string::npos) {
      const json::Value parsed = json::parse(rows[i]);
      EXPECT_EQ(parsed.find("status")->as_string(), "failed");
      EXPECT_EQ(parsed.find("error_type")->as_string(), "std::runtime_error");
      EXPECT_EQ(parsed.find("error_message")->as_string(), "injected suite fault");
      EXPECT_EQ(parsed.find("attempts")->as_integer(), 1);
      // The reported repetition is the lowest failing one -- deterministic
      // regardless of worker scheduling.
      EXPECT_EQ(parsed.find("repetition")->as_integer(), 0);
      EXPECT_EQ(parsed.find("total_cost"), nullptr);
    } else {
      // Healthy cells match the fault-free run on every metric.
      EXPECT_EQ(strip_wall(rows[i]), strip_wall(reference[i])) << names[i];
    }
  }
}

TEST(SuiteFault, FailFastAbortsTheSuite) {
  const SuiteRunner runner(parse_suite(kJournalSuite));
  SuiteRunOptions options;
  options.threads = 2;
  options.policy.fault_hook = [](const std::string& cell, std::size_t,
                                 const CancelToken*) {
    if (cell.find(" x fifo") != std::string::npos) {
      throw std::runtime_error("injected suite fault");
    }
  };
  EXPECT_THROW(runner.run(options), std::runtime_error);
}

// --- compatibility pins and the mutation property ----------------------------

std::string source_path(const std::string& relative) {
  return std::string(RDCN_SOURCE_DIR) + "/" + relative;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The example gallery plus two documents that set every key: every
/// topology kind with all its keys (batch), and every traffic, stream and
/// stage key (stream).
std::vector<std::string> schema_documents() {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(source_path("examples/suites"))) {
    if (entry.path().extension() == ".json") files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  files.push_back(source_path("tests/suites/all_keys_batch.json"));
  files.push_back(source_path("tests/suites/all_keys_stream.json"));
  return files;
}

TEST(SuiteCompat, NormalizedTextMatchesThePinnedForm) {
  // tests/suites/normalized/ holds the suite_to_json text of each document
  // as emitted before the schema-driven codec; resume compares this text,
  // so journals written by earlier builds only resume while it holds.
  for (const std::string& file : schema_documents()) {
    const std::string name = std::filesystem::path(file).filename().string();
    EXPECT_EQ(suite_to_json(load_suite_file(file)),
              read_file(source_path("tests/suites/normalized/" + name)))
        << file;
  }
}

TEST(SuiteCompat, EarlierJournalResumesWithoutRerunningACell) {
  // Written by `rdcn_cli suite tests/suites/all_keys_stream.json --journal`
  // before the schema-driven codec.
  const SuiteJournal journal =
      load_suite_journal(source_path("tests/suites/all_keys_stream.journal"));
  ASSERT_EQ(journal.rows.size(), 8u);
  EXPECT_EQ(std::count(journal.rows.begin(), journal.rows.end(), std::string()), 0);
  std::atomic<int> attempts{0};
  SuiteRunOptions options;
  options.threads = 1;
  options.policy.fault_hook = [&attempts](const std::string&, std::size_t,
                                          const CancelToken*) { ++attempts; };
  EXPECT_EQ(SuiteRunner(journal.spec).run(options, &journal), journal.rows);
  EXPECT_EQ(attempts.load(), 0);
}

std::string parent_of(const std::string& path) {
  const std::size_t cut = path.find_last_of(".[");
  return cut == std::string::npos ? std::string() : path.substr(0, cut);
}

std::string key_of(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  return dot == std::string::npos ? path : path.substr(dot + 1);
}

/// Whether an edit of `slot` may be rejected at `error`: the slot itself
/// or a value inside it, or the key a cross-field rule names.
bool explains(const std::string& slot, const std::string& error) {
  if (error == slot || slot.empty() || error.rfind(slot + ".", 0) == 0 ||
      error.rfind(slot + "[", 0) == 0) {
    return true;
  }
  const std::string record = parent_of(slot);
  // "kind" and "mode" decide which keys their object accepts and needs.
  if (key_of(slot) == "kind" || key_of(slot) == "mode") return parent_of(error) == record;
  // Record rules reject the later of the two keys they relate.
  static const std::set<std::string> rule_keys = {
      "hot_racks",
      "slow_delay",
      "degree",
      "max_edge_delay",
      "matchings",
      "reconfig_delay",
  };
  if (parent_of(error) == record && rule_keys.count(key_of(error)) > 0) return true;
  // Axis labels are distinct, so a label edit can collide with another.
  const std::string axis = slot.substr(0, slot.find('['));
  if (key_of(error) == "name" && error.rfind(axis + "[", 0) == 0) return true;
  // No stage may raise capacity under an engine with a reconfig delay.
  return slot.rfind("engines", 0) == 0 && error.rfind("stages[", 0) == 0 &&
         key_of(error) == "capacity";
}

TEST(SuiteMutation, EveryEditIsAcceptedStablyOrRejectedAtItsSlot) {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const std::string& file : schema_documents()) {
    for_each_mutation(read_file(file), [&](const Mutation& mutation) {
      const auto where = [&] {
        return file + " kind " + std::to_string(static_cast<int>(mutation.kind)) +
               " slot \"" + mutation.slot + "\"\n" + mutation.text;
      };
      try {
        const std::string normalized = suite_to_json(parse_suite(mutation.text));
        EXPECT_EQ(suite_to_json(parse_suite(normalized)), normalized) << where();
        ++accepted;
      } catch (const SuiteError& error) {
        EXPECT_TRUE(explains(mutation.slot, error.path()))
            << error.what() << "\n" << where();
        ++rejected;
      } catch (const std::exception& error) {
        ADD_FAILURE() << "not a SuiteError: " << error.what() << "\n" << where();
      }
    });
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// --- make_topology across the extended TopologySpec grid --------------------

std::vector<std::tuple<NodeIndex, NodeIndex, Delay>> edge_list(const Topology& g) {
  std::vector<std::tuple<NodeIndex, NodeIndex, Delay>> list;
  for (const ReconfigEdge& edge : g.edges()) {
    list.emplace_back(edge.transmitter, edge.receiver, edge.delay);
  }
  for (const FixedLink& link : g.fixed_links()) {
    list.emplace_back(-1 - link.source, -1 - link.destination, link.delay);
  }
  return list;
}

/// The full extended grid: every kind with a few config corners each.
std::vector<TopologySpec> topology_grid() {
  std::vector<TopologySpec> grid;
  {
    TopologySpec spec;  // dense two-tier
    spec.two_tier.racks = 5;
    grid.push_back(spec);
    spec.two_tier.density = 0.3;  // sparse + hybrid
    spec.two_tier.fixed_link_delay = 9;
    spec.seed_salt = 7;
    grid.push_back(spec);
  }
  {
    TopologySpec spec;
    spec.kind = TopologySpec::Kind::Crossbar;
    spec.crossbar_ports = 6;
    grid.push_back(spec);
  }
  {
    TopologySpec spec;
    spec.kind = TopologySpec::Kind::Oversubscribed;
    spec.oversubscribed.racks = 6;
    grid.push_back(spec);
    spec.oversubscribed.fixed_base_delay = 0;  // patch path
    spec.oversubscribed.density = 0.2;
    grid.push_back(spec);
  }
  {
    TopologySpec spec;
    spec.kind = TopologySpec::Kind::Expander;
    spec.expander.racks = 7;
    spec.expander.degree = 3;
    grid.push_back(spec);
    spec.expander.fixed_link_delay = 0;  // pure expander
    spec.seed_salt = 11;
    grid.push_back(spec);
  }
  {
    TopologySpec spec;
    spec.kind = TopologySpec::Kind::Rotor;
    spec.rotor.racks = 6;
    spec.rotor.ports_per_rack = 2;
    grid.push_back(spec);
    spec.rotor.num_matchings = 2;  // sparse offsets
    grid.push_back(spec);
  }
  return grid;
}

/// True when the spec's builder contract guarantees every ordered rack
/// pair is routable.
bool guarantees_full_routability(const TopologySpec& spec) {
  switch (spec.kind) {
    case TopologySpec::Kind::TwoTier:
    case TopologySpec::Kind::Crossbar:
    case TopologySpec::Kind::Oversubscribed:
      return true;
    case TopologySpec::Kind::Expander:
      return spec.expander.fixed_link_delay > 0;
    case TopologySpec::Kind::Rotor:
      return spec.rotor.fixed_link_delay > 0 || spec.rotor.num_matchings == 0;
  }
  return false;
}

class TopologyGrid : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TopologyGrid, SameSeedIsBitIdentical) {
  const TopologySpec spec = topology_grid()[GetParam()];
  for (const std::uint64_t seed : {1ULL, 42ULL, 12345ULL}) {
    EXPECT_EQ(edge_list(make_topology(spec, seed)), edge_list(make_topology(spec, seed)));
  }
}

TEST_P(TopologyGrid, ValidatesAndHonorsRoutabilityContract) {
  const TopologySpec spec = topology_grid()[GetParam()];
  const Topology g = make_topology(spec, 3);
  EXPECT_EQ(g.validate(), "");
  ASSERT_GT(g.num_edges() + static_cast<EdgeIndex>(g.fixed_links().size()), 0);
  if (guarantees_full_routability(spec)) {
    for (NodeIndex s = 0; s < g.num_sources(); ++s) {
      for (NodeIndex d = 0; d < g.num_destinations(); ++d) {
        if (s == d) continue;
        EXPECT_TRUE(g.routable(s, d))
            << to_string(spec.kind) << " " << s << "->" << d;
      }
    }
  }
}

TEST_P(TopologyGrid, PortAndDegreeBoundsRespected) {
  const TopologySpec spec = topology_grid()[GetParam()];
  const Topology g = make_topology(spec, 9);
  // Per-port degree can never exceed the opposite side's port count, and
  // the kind-specific caps hold.
  for (NodeIndex t = 0; t < g.num_transmitters(); ++t) {
    EXPECT_LE(static_cast<NodeIndex>(g.edges_of_transmitter(t).size()), g.num_receivers());
  }
  switch (spec.kind) {
    case TopologySpec::Kind::Crossbar:
      EXPECT_EQ(g.num_edges(), spec.crossbar_ports * spec.crossbar_ports);
      break;
    case TopologySpec::Kind::Expander: {
      std::vector<std::size_t> out(static_cast<std::size_t>(g.num_sources()), 0);
      std::vector<std::size_t> in(static_cast<std::size_t>(g.num_destinations()), 0);
      for (const ReconfigEdge& edge : g.edges()) {
        ++out[static_cast<std::size_t>(g.source_of(edge.transmitter))];
        ++in[static_cast<std::size_t>(g.destination_of(edge.receiver))];
      }
      for (const std::size_t degree : out) {
        EXPECT_EQ(degree, static_cast<std::size_t>(spec.expander.degree));
      }
      for (const std::size_t degree : in) {
        EXPECT_EQ(degree, static_cast<std::size_t>(spec.expander.degree));
      }
      break;
    }
    case TopologySpec::Kind::Rotor:
      EXPECT_EQ(g.num_edges(), spec.rotor.racks * rotor_matchings(spec.rotor));
      break;
    case TopologySpec::Kind::TwoTier:
    case TopologySpec::Kind::Oversubscribed:
      break;  // stochastic counts; validate() + routability cover them
  }
}

TEST_P(TopologyGrid, FixedWiringSharesOneTopologyAcrossSeeds) {
  TopologySpec spec = topology_grid()[GetParam()];
  spec.fixed_wiring = true;
  EXPECT_EQ(edge_list(make_topology(spec, 1)), edge_list(make_topology(spec, 999)));
}

TEST_P(TopologyGrid, WorkloadsGenerateOnEveryKind) {
  const TopologySpec spec = topology_grid()[GetParam()];
  WorkloadConfig workload;
  workload.num_packets = 15;
  workload.seed = 4;
  const Instance instance = generate_workload(make_topology(spec, 4), workload);
  EXPECT_EQ(instance.validate(), "");
  EXPECT_EQ(instance.num_packets(), 15u);
}

INSTANTIATE_TEST_SUITE_P(Zoo, TopologyGrid,
                         ::testing::Range<std::size_t>(0, topology_grid().size()));

// --- fuzz grid coverage ------------------------------------------------------

TEST(FuzzGrid, FirstHundredSeedsDrawEveryTopologyKind) {
  std::set<TopologySpec::Kind> batch_kinds;
  std::set<TopologySpec::Kind> stream_kinds;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    batch_kinds.insert(random_scenario_spec(seed).topology.kind);
    stream_kinds.insert(random_stream_spec(seed).topology.kind);
  }
  EXPECT_EQ(batch_kinds.size(), 5u);
  EXPECT_EQ(stream_kinds.size(), 5u);
}

TEST(FuzzGrid, StreamSpecsDrawStagedSchedulesWithBothDeadPolicies) {
  std::size_t staged = 0;
  bool saw_drop = false;
  bool saw_requeue = false;
  bool saw_kill = false;
  bool saw_restore = false;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const StreamSpec spec = random_stream_spec(seed);
    if (spec.stages.empty()) continue;
    ++staged;
    StreamRunner{spec};  // every drawn schedule passes the runner's validation
    for (const StageSpec& stage : spec.stages) {
      saw_drop |= stage.mutation.dead_policy == DeadPolicy::Drop;
      saw_requeue |= stage.mutation.dead_policy == DeadPolicy::Requeue;
      saw_kill |= !stage.mutation.kill_edges.empty() || !stage.mutation.kill_racks.empty();
      saw_restore |=
          !stage.mutation.restore_edges.empty() || !stage.mutation.restore_racks.empty();
    }
  }
  EXPECT_GT(staged, 15u);  // ~35% of 100 specs carry a schedule
  EXPECT_TRUE(saw_drop);
  EXPECT_TRUE(saw_requeue);
  EXPECT_TRUE(saw_kill);
  EXPECT_TRUE(saw_restore);
}

TEST(FuzzGrid, RandomSpecsProduceValidInstances) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const ScenarioSpec spec = random_scenario_spec(seed);
    const Instance instance = ScenarioRunner(spec).instance(spec.base_seed);
    EXPECT_EQ(instance.validate(), "") << "seed " << seed;
    EXPECT_GT(instance.num_packets(), 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace rdcn
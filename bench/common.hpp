#pragma once

// Shared harness for the experiment binaries. Scenario construction,
// policy wiring, repetition and aggregation all live in the library's
// run/ subsystem (ScenarioSpec / ScenarioRunner / BatchRunner and the
// policy registry); this header only adds presentation: the paper-style
// ASCII tables of util/table.hpp plus a machine-readable JSON report, one
// line per row. Every bench's output regenerates with
// `for b in build/bench/*; do $b; done`.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "run/batch.hpp"
#include "run/policies.hpp"
#include "run/scenario.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace rdcn::bench {

/// The recurring experiment shape: a two-tier pod with symmetric
/// lasers/photodetectors per rack. Traffic, engine options, seeds and
/// repetitions are set on the returned spec.
inline ScenarioSpec two_tier_scenario(std::string name, NodeIndex racks,
                                      NodeIndex per_rack, double density,
                                      Delay max_edge_delay = 2) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  auto& net = spec.topology.two_tier;
  net.racks = racks;
  net.lasers_per_rack = per_rack;
  net.photodetectors_per_rack = per_rack;
  net.density = density;
  net.max_edge_delay = max_edge_delay;
  return spec;
}

/// Cost of one scenario repetition under a policy (convenience for
/// benches that feed a bespoke, already-built instance).
inline double run_policy_cost(const Instance& instance, const PolicyFactory& policy,
                              EngineOptions options = {}) {
  auto dispatcher = policy.dispatcher();
  auto scheduler = policy.scheduler(instance.topology());
  return simulate(instance, *dispatcher, *scheduler, options).total_cost;
}

/// mean over seeds of metric(instance(seed)), computed in parallel.
inline Summary sweep_seeds(std::size_t seeds,
                           const std::function<double(std::uint64_t)>& metric) {
  Summary summary;
  std::vector<double> values(seeds);
  parallel_for(seeds, [&](std::size_t i) {
    values[i] = metric(static_cast<std::uint64_t>(i + 1));
  });
  for (double value : values) summary.add(value);
  return summary;
}

// --- machine-readable output ------------------------------------------------

// Report rendering goes through util/json (see json_lines below); this
// numeric formatter remains public for benches that print ad-hoc numbers
// outside a report. NaN / inf have no JSON representation ("nan" breaks
// every parser); they reach here e.g. through Summary::min()/max() on an
// empty summary -- util/json's dump() applies the same null mapping.
inline std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

/// Accumulates one bench's results and prints them as JSON lines -- one
/// object per row, greppable via '^{':
///   {"bench":"baselines","name":"ALG","params":{"zipf":0.8,"rate":2},
///    "total_cost":123.4,"wall_ms":5.67}
class BenchReport {
 public:
  class Row {
   public:
    Row& param(const std::string& key, const std::string& value) {
      params_.emplace_back(key, json::Value(value));
      return *this;
    }
    Row& param(const std::string& key, double value) {
      params_.emplace_back(key, json::Value(value));
      return *this;
    }
    Row& param(const std::string& key, std::int64_t value) {
      params_.emplace_back(key, json::Value(value));
      return *this;
    }
    /// Extra top-level metric next to total_cost / wall_ms.
    Row& value(const std::string& key, double metric) {
      extra_.emplace_back(key, metric);
      return *this;
    }

   private:
    friend class BenchReport;
    std::string name_;
    json::Object params_;  ///< insertion order preserved in the output
    double total_cost_ = 0.0;
    double wall_ms_ = 0.0;
    std::vector<std::pair<std::string, double>> extra_;
  };

  explicit BenchReport(std::string bench) : bench_(std::move(bench)) {}

  Row& add(const std::string& name, double total_cost, double wall_ms) {
    rows_.emplace_back();
    rows_.back().name_ = name;
    rows_.back().total_cost_ = total_cost;
    rows_.back().wall_ms_ = wall_ms;
    return rows_.back();
  }

  /// Standard row from an aggregated scenario x policy result: mean cost
  /// and mean per-repetition wall clock.
  Row& add(const ScenarioResult& result) {
    Row& row = add(result.policy, result.cost.mean(), result.wall_ms.mean());
    row.param("scenario", result.scenario);
    row.param("reps", static_cast<std::int64_t>(result.repetitions.size()));
    return row;
  }

  /// The report as JSON lines (exposed so tests can parse every line).
  /// Rendering goes through util/json: one json::Object per row, dumped
  /// compact, so escaping / non-finite handling / number formatting have
  /// exactly one implementation in the tree.
  std::vector<std::string> json_lines() const {
    std::vector<std::string> lines;
    lines.reserve(rows_.size());
    for (const Row& row : rows_) {
      json::Object line;
      line.emplace_back("bench", json::Value(bench_));
      line.emplace_back("name", json::Value(row.name_));
      if (!row.params_.empty()) line.emplace_back("params", json::Value(row.params_));
      line.emplace_back("total_cost", json::Value(row.total_cost_));
      line.emplace_back("wall_ms", json::Value(row.wall_ms_));
      for (const auto& [key, value] : row.extra_) {
        line.emplace_back(key, json::Value(value));
      }
      lines.push_back(json::dump(json::Value(std::move(line))));
    }
    return lines;
  }

  /// Prints every row as one JSON object per line.
  void print() const {
    std::printf("\n--- machine-readable (JSON lines) ---\n");
    for (const std::string& line : json_lines()) std::printf("%s\n", line.c_str());
  }

 private:
  std::string bench_;
  std::deque<Row> rows_;  ///< deque: add() hands out stable Row references
};

}  // namespace rdcn::bench

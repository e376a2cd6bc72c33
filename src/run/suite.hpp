#pragma once

// Declarative scenario suites: a JSON file describes a full experiment
// grid -- topologies x workloads (or open-loop traffic) x engine variants
// x policies -- and a SuiteRunner fans the expanded grid through the
// existing BatchRunner, emitting one BenchReport-style JSON line per
// (cell, policy). Every future experiment becomes a config file instead
// of a recompile; the gallery under examples/suites/ holds the paper
// baselines and the topology-zoo shootouts.
//
// The parser is strict: unknown keys are rejected (with the list of keys
// the object accepts), type mismatches and out-of-range values name the
// exact JSON path ("topologies[2].density"), and policies are validated
// against the run/ registry at parse time. suite_to_json re-emits the
// normalized form (every default materialized), so spec -> JSON -> spec
// round-trips bit-for-bit -- the golden test in tests/test_suite.cpp.
//
// One grid walk fixes the cell order (topology, then workload or traffic,
// then engine; policies innermost): suite_batch_grid, suite_stream_grid,
// SuiteRunner::cell_names, the row headers and the journal all read it,
// and SuiteRunner::run enqueues and records both modes through one path.
//
// Each record's keys, types, ranges and cross-field rules are declared
// once, by the fields(io, record) functions in suite.cpp; parsing, the
// normalized form and the journal lines all run those declarations, and
// absent keys keep the structs' default member values.
//
// Schema (see README.md "Declarative suite files" for the annotated
// version):
//
//   {
//     "suite": "paper-baseline",          // required
//     "mode": "batch",                    // batch (default) | stream
//     "seeds": {"base": 1, "repetitions": 5},
//     "policies": ["alg", "maxweight"],   // required, registry names
//     "engines": [{"name": "unit"}],      // optional engine variants:
//                                         // speedup / capacity /
//                                         // reconfig_delay / audit / profile
//     "topologies": [{"kind": "two_tier", ...}, ...],   // required
//     "workloads": [{...}, ...],          // batch mode: required
//     "traffic": [{...}, ...],            // stream mode: required
//     "stream": {"warmup": 1000, ...},    // stream mode run knobs
//     "stages": [{"duration": 500, "kill_racks": [0], ...}, ...]
//   }                                     // stream mode: optional schedule
//
// "stages" declares a time-staged dynamic scenario (run/stream.hpp
// StageSpec): each entry holds traffic overrides (rho / on_stay /
// off_stay, -1 inherits the traffic axis) plus an engine mutation
// (kill_edges / restore_edges / kill_racks / restore_racks / speedup /
// capacity / dead: drop|requeue) applied atomically at the stage edge.
// While any engine has reconfig_delay > 0, no stage may set capacity > 1
// (the delay extension is defined on the matching model).
// The same schedule is copied into every grid cell, so edge indices must
// be valid for every topology axis entry (rack indices are the portable
// choice). A standalone schedule file (a bare JSON array of the same
// stage objects) is the `rdcn_cli stream --stages` input.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "run/failure.hpp"
#include "run/scenario.hpp"
#include "run/stream.hpp"

namespace rdcn {

/// Suite parse/validation failure. `path()` is the JSON path of the
/// offending value ("topologies[2].density"; empty for document-level
/// errors); what() always embeds it.
class SuiteError : public std::runtime_error {
 public:
  SuiteError(std::string path, const std::string& what)
      : std::runtime_error(path.empty() ? what : path + ": " + what),
        path_(std::move(path)) {}

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// One labelled axis entry of the grid. Labels default to
/// "<kind-or-index>" and must be unique per axis (they name result cells).
struct SuiteTopology {
  std::string label;
  TopologySpec spec;
};

struct SuiteWorkload {
  std::string label;
  WorkloadConfig config;
};

struct SuiteTraffic {
  std::string label;
  TrafficConfig config;
};

struct SuiteEngine {
  std::string label;
  EngineOptions options;
};

struct SuiteSpec {
  enum class Mode { Batch, Stream };

  std::string name;
  Mode mode = Mode::Batch;
  std::uint64_t base_seed = 1;
  std::size_t repetitions = 3;

  std::vector<SuiteTopology> topologies;
  std::vector<SuiteWorkload> workloads;  ///< batch mode axis
  std::vector<SuiteTraffic> traffic;     ///< stream mode axis
  std::vector<SuiteEngine> engines;      ///< always >= 1 (default "s1c1r0")
  std::vector<std::string> policies;     ///< registry names, validated

  /// Stream-mode run knobs (ignored in batch mode).
  std::size_t warmup_packets = 1000;
  std::size_t measure_packets = 10000;
  Time telemetry_window = 256;
  Time max_steps = 0;
  double step_cap_factor = 8.0;

  /// Stream-mode stage schedule, copied into every grid cell (empty =
  /// classic single-regime runs). See the "stages" schema note above.
  std::vector<StageSpec> stages;
};

/// Parses and validates a suite document. Throws SuiteError (and never
/// json::ParseError: malformed JSON is wrapped with its position).
SuiteSpec parse_suite(const std::string& json_text);

/// Reads the file and parses it; file-system errors also throw SuiteError.
SuiteSpec load_suite_file(const std::string& path);

/// Parses a standalone stage schedule: a JSON array of stage objects, the
/// exact schema of a suite's "stages" key (errors name "stages[i].key").
/// This is the `rdcn_cli stream --stages` document.
std::vector<StageSpec> parse_stages_json(const std::string& json_text);

/// Reads and parses a stage-schedule file; also throws SuiteError.
std::vector<StageSpec> load_stages_file(const std::string& path);

/// The normalized document: every default materialized, keys in schema
/// order. parse_suite(suite_to_json(s)) reproduces s exactly, and
/// suite_to_json is a fixpoint over that round-trip.
std::string suite_to_json(const SuiteSpec& spec);

/// The expanded batch grid (topologies x workloads x engines), one
/// ScenarioSpec per cell, named "<suite>/<topology>/<workload>/<engine>".
/// Throws SuiteError when spec.mode != Batch.
std::vector<ScenarioSpec> suite_batch_grid(const SuiteSpec& spec);

/// The expanded stream grid (topologies x traffic x engines), mirrored
/// naming. Throws SuiteError when spec.mode != Stream.
std::vector<StreamSpec> suite_stream_grid(const SuiteSpec& spec);

/// Fault-tolerance and journaling knobs of a suite run.
struct SuiteRunOptions {
  std::size_t threads = 0;  ///< BatchRunner pool width (0 = hardware)
  /// Failure policy, per-repetition deadline, retry budget, fault hook.
  RunPolicy policy;
  /// Crash-safe journal path (empty = none): after every completed cell
  /// the whole manifest is rewritten via atomic write-temp-fsync-rename,
  /// so the file is a complete valid journal at every instant -- SIGKILL
  /// at any byte loses at most the in-flight cells.
  std::string journal;
};

/// A loaded suite journal: the embedded normalized spec plus the rows
/// recorded so far (indexed by cell; empty string = not yet recorded).
///
/// On-disk format (JSON lines, every line strict JSON):
///   {"rdcn_suite_journal":1,"suite":<name>,"cells":N,"spec":<normalized>}
///   {"cell":i,"name":<cell name>,"row":<the emitted JSON row, verbatim>}
/// The spec is embedded as suite_to_json text, so a journal alone can
/// resume its suite; rows are stored verbatim, which is what makes the
/// resumed output bit-identical to an uninterrupted run.
struct SuiteJournal {
  SuiteSpec spec;
  std::string spec_json;           ///< normalized text, the resume digest
  std::vector<std::string> rows;   ///< size = cells(); "" = missing
};

/// Reads and strictly validates a journal file (header tag, spec
/// round-trip, cell indices/names, row JSON). Throws SuiteError.
SuiteJournal load_suite_journal(const std::string& path);

/// Executes a suite: expands the grid, fans every (cell, policy) through
/// a BatchRunner, and renders one BenchReport-schema JSON line per cell
/// ({"bench": <suite>, "name": <policy>, "params": {...}, "total_cost":
/// ..., "wall_ms": ..., ...}).
class SuiteRunner {
 public:
  explicit SuiteRunner(SuiteSpec spec);

  const SuiteSpec& spec() const noexcept { return spec_; }

  /// Cells in the expanded grid (before the policy fan-out).
  std::size_t grid_cells() const noexcept;

  /// Total (cell, policy) result lines run() will emit.
  std::size_t cells() const noexcept { return grid_cells() * spec_.policies.size(); }

  /// "<scenario-name> x <policy>" for every cell, in run() order (the
  /// CLI's --list / dry-run view).
  std::vector<std::string> cell_names() const;

  /// Runs the whole grid on a BatchRunner (threads = 0: hardware
  /// concurrency) and returns the JSON lines in cell_names() order.
  std::vector<std::string> run(std::size_t threads = 0) const {
    return run(SuiteRunOptions{threads, RunPolicy{}, std::string()}, nullptr);
  }

  /// Same with fault tolerance and journaling. With `resume`, cells the
  /// journal already records are skipped and their rows merged back
  /// verbatim, so the returned lines are bit-identical to an
  /// uninterrupted run; the journal's normalized spec must match this
  /// suite's exactly (SuiteError otherwise). Under isolate, failed cells
  /// render a structured error row ("status": "failed", exception type +
  /// message, attempt count) instead of poisoning their siblings.
  std::vector<std::string> run(const SuiteRunOptions& options,
                               const SuiteJournal* resume = nullptr) const;

 private:
  SuiteSpec spec_;
};

}  // namespace rdcn

#include "run/suite.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <type_traits>
#include <utility>

#include "run/batch.hpp"
#include "run/policies.hpp"
#include "util/atomic_file.hpp"
#include "util/enum_names.hpp"
#include "util/json.hpp"

namespace rdcn {

namespace {

constexpr std::int64_t kMaxDelay = 1'000'000;
constexpr std::int64_t kMaxPorts = 256;
constexpr std::int64_t kMaxRacks = 4096;
constexpr std::int64_t kMaxInt = std::numeric_limits<std::int64_t>::max();
// Stage index lists are checked against the topology later
// (Engine::apply_mutation at run time -- the suite grid may span several
// topologies); the parse-time cap only rejects nonsense.
constexpr std::int64_t kMaxIndex = 100'000'000;

// Names of the enums only suite files spell; the others sit beside their
// to_string (run/scenario, workload/generator, traffic/source).
constexpr EnumName<SuiteSpec::Mode> kModeNames[] = {
    {SuiteSpec::Mode::Batch, "batch"},
    {SuiteSpec::Mode::Stream, "stream"},
};
constexpr EnumName<CapacityModel> kCapacityModelNames[] = {
    {CapacityModel::Ports, "ports"},
    {CapacityModel::MaxMatching, "max_matching"},
};
constexpr EnumName<DeadPolicy> kDeadPolicyNames[] = {
    {DeadPolicy::Drop, "drop"},
    {DeadPolicy::Requeue, "requeue"},
};

std::string slash_error(const std::string& label) {
  return "label \"" + label + "\" may not contain '/' (labels compose cell names)";
}

// Labels an axis entry gets when its "name" key is absent.
std::string default_label(const SuiteTopology& entry) {
  return to_string(entry.spec.kind);
}
std::string default_label(const SuiteWorkload& entry) {
  return to_string(entry.config.skew);
}
std::string default_label(const SuiteTraffic& entry) {
  return to_string(entry.config.process);
}
std::string default_label(const SuiteEngine& entry) {
  const EngineOptions& options = entry.options;
  std::string label = "s" + std::to_string(options.speedup_rounds) + "c" +
                      std::to_string(options.endpoint_capacity) + "r" +
                      std::to_string(options.reconfig_delay);
  if (options.audit) label += "-audit";
  if (options.probe.enabled) label += "-profile";
  return label;
}

/// Reads one record (see fields() below) from the JSON object at `path`.
template <typename Record, typename... Context>
Record read_record(const json::Value& value, const std::string& path,
                   const Context&... context);
/// The record's normalized JSON object.
template <typename Record, typename... Context>
json::Value write_record(const Record& record, const Context&... context);
std::vector<StageSpec> read_stages(const json::Value& value, const std::string& path);
json::Value write_stages(const std::vector<StageSpec>& stages);

// --- reader and writer ------------------------------------------------------
//
// Every record is declared once, by a fields(io, record) function further
// down that names each key in normalized order with its type and range,
// and states the record's cross-field rules right after the key they
// reject. A Reader runs a declaration to parse, a Writer runs the same
// declaration to emit, so parsing and the normalized form cannot drift.

/// Parses one JSON object: typed getters with range checks, every error
/// naming the full JSON path, absent keys leaving the record's default
/// member values, and finish() rejecting every key no getter named.
class Reader {
 public:
  static constexpr bool kWrites = false;

  Reader(const json::Value& value, std::string path) : path_(std::move(path)) {
    if (!value.is_object()) {
      throw SuiteError(path_,
                       std::string("expected an object, found ") + value.type_name());
    }
    object_ = &value.as_object();
  }

  /// A required string.
  void text(const char* key, std::string& slot) {
    const json::Value* value = member(key);
    if (!value) reject("required key is missing");
    slot = string_of(*value);
  }

  /// An axis entry's label; absent leaves `slot` empty for the default.
  void label(const char* key, std::string& slot) {
    const json::Value* value = member(key);
    if (!value) return;
    slot = string_of(*value);
    if (slot.empty()) reject("labels must be non-empty");
    if (slot.find('/') != std::string::npos) reject(slash_error(slot));
  }

  template <typename Int>
  void integer(const char* key, Int& slot, std::int64_t lo, std::int64_t hi) {
    const json::Value* value = member(key);
    if (!value) return;
    if (!value->is_integer()) type_error("an integer", *value);
    const std::int64_t parsed = value->as_integer();
    if (parsed < lo || parsed > hi) {
      reject(std::to_string(parsed) + " is out of range [" + std::to_string(lo) + ", " +
             std::to_string(hi) + "]");
    }
    slot = static_cast<Int>(parsed);
  }

  void real(const char* key, double& slot, double lo, double hi) {
    const json::Value* value = member(key);
    if (!value) return;
    if (!value->is_number()) type_error("a number", *value);
    const double parsed = value->as_number();
    if (!(parsed >= lo && parsed <= hi)) {
      std::ostringstream what;
      what << parsed << " is out of range [" << lo << ", " << hi << "]";
      reject(what.str());
    }
    slot = parsed;
  }

  void boolean(const char* key, bool& slot) {
    const json::Value* value = member(key);
    if (!value) return;
    if (!value->is_bool()) type_error("true or false", *value);
    slot = value->as_bool();
  }

  /// An enum by its name in `names`.
  template <typename Enum, typename Table>
  void choice(const char* key, Enum& slot, const Table& names, bool required = false) {
    const json::Value* value = member(key);
    if (!value) {
      if (required) reject("required key is missing");
      return;
    }
    const std::string& text = string_of(*value);
    if (!value_of(names, text, slot)) {
      reject("unknown value \"" + text + "\"; known:" + known_names(names));
    }
  }

  /// An array of indices in [0, hi]; element errors name "key[j]".
  template <typename Index>
  void indices(const char* key, std::vector<Index>& slot, std::int64_t hi) {
    const json::Value* value = member(key);
    if (!value) return;
    const json::Array& entries = array_of(*value);
    slot.clear();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const std::string path = element(i);
      if (!entries[i].is_integer()) {
        throw SuiteError(path, std::string("expected an integer, found ") +
                                   entries[i].type_name());
      }
      const std::int64_t parsed = entries[i].as_integer();
      if (parsed < 0 || parsed > hi) {
        throw SuiteError(path, std::to_string(parsed) + " is out of range [0, " +
                                   std::to_string(hi) + "]");
      }
      slot.push_back(static_cast<Index>(parsed));
    }
  }

  /// Required, non-empty, duplicate-free policy names, checked against
  /// the registry so a typo fails at parse time.
  void policies(const char* key, std::vector<std::string>& slot) {
    const json::Value* value = member(key);
    if (!value) reject("required key is missing");
    const json::Array& entries = array_of(*value);
    if (entries.empty()) reject("needs at least one policy");
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const std::string path = element(i);
      if (!entries[i].is_string()) {
        throw SuiteError(path, std::string("expected a string, found ") +
                                   entries[i].type_name());
      }
      const std::string& name = entries[i].as_string();
      try {
        (void)named_policy(name);
      } catch (const std::invalid_argument&) {
        std::string known;
        for (const std::string& entry : policy_names()) known += " " + entry;
        throw SuiteError(path, "unknown policy \"" + name + "\"; registry:" + known);
      }
      if (std::find(slot.begin(), slot.end(), name) != slot.end()) {
        throw SuiteError(path, "duplicate policy \"" + name + "\"");
      }
      slot.push_back(name);
    }
  }

  /// A grid axis: an array of labelled records with distinct labels.
  /// `excluded`, when set, is why the suite's mode rejects a non-empty one.
  template <typename Entry>
  void entries(const char* key, std::vector<Entry>& slot, bool required,
               const char* excluded = nullptr) {
    const json::Value* value = member(key);
    if (!value) {
      if (required) reject("required key is missing");
      return;
    }
    const json::Array& elements = array_of(*value);
    if (required && elements.empty()) reject("needs at least one entry");
    for (std::size_t i = 0; i < elements.size(); ++i) {
      Entry entry = read_record<Entry>(elements[i], element(i));
      if (entry.label.empty()) entry.label = default_label(entry);
      slot.push_back(std::move(entry));
    }
    for (std::size_t i = 0; i < slot.size(); ++i) {
      for (std::size_t j = i + 1; j < slot.size(); ++j) {
        if (slot[i].label == slot[j].label) {
          throw SuiteError(element(j) + ".name",
                           "duplicate label \"" + slot[j].label +
                               "\"; give each axis entry a distinct \"name\"");
        }
      }
    }
    if (excluded && !slot.empty()) reject(excluded);
  }

  /// An optional nested record, declared by `read(reader)`; `excluded`,
  /// when set, is why the suite's mode rejects it.
  template <typename Declaration>
  void object(const char* key, const char* excluded, Declaration&& read) {
    if (const json::Value* value = optional(key, excluded)) {
      Reader reader(*value, last_);
      read(reader);
      reader.finish();
    }
  }

  /// An optional stage schedule (see read_stages), like object().
  void stages(const char* key, std::vector<StageSpec>& slot, const char* excluded) {
    if (const json::Value* value = optional(key, excluded)) {
      slot = read_stages(*value, last_);
    }
  }

  /// A format tag that must be present and equal `expected`.
  void version(const char* key, std::int64_t expected) {
    const json::Value* value = member(key);
    if (!value || !value->is_integer() || value->as_integer() != expected) {
      reject("missing or unsupported journal version");
    }
  }

  /// Rejects the value of the key declared last: a cross-field rule sits
  /// right after the key it rejects.
  [[noreturn]] void reject(const std::string& message) const {
    throw SuiteError(last_, message);
  }

  /// Rejects the value at `path` below this object.
  [[noreturn]] void reject_at(const std::string& path, const std::string& message) const {
    throw SuiteError(path_of(path), message);
  }

  /// Rejects every key no getter named, listing what the object accepts.
  void finish() const {
    for (const json::Member& entry : *object_) {
      if (std::find(allowed_.begin(), allowed_.end(), entry.first) != allowed_.end()) {
        continue;
      }
      std::string known;
      for (const std::string& key : allowed_) known += " " + key;
      throw SuiteError(path_of(entry.first), "unknown key; this object accepts:" + known);
    }
  }

 private:
  std::string path_of(const std::string& key) const {
    return path_.empty() ? key : path_ + "." + key;
  }

  std::string element(std::size_t i) const {
    return last_ + "[" + std::to_string(i) + "]";
  }

  const json::Value* member(const char* key) {
    allowed_.emplace_back(key);
    last_ = path_of(key);
    for (const json::Member& entry : *object_) {
      if (entry.first == key) return &entry.second;
    }
    return nullptr;
  }

  const json::Value* optional(const char* key, const char* excluded) {
    const json::Value* value = member(key);
    if (value && excluded) reject(excluded);
    return value;
  }

  [[noreturn]] void type_error(const char* expected, const json::Value& value) const {
    reject(std::string("expected ") + expected + ", found " + value.type_name());
  }

  const std::string& string_of(const json::Value& value) const {
    if (!value.is_string()) type_error("a string", value);
    return value.as_string();
  }

  const json::Array& array_of(const json::Value& value) const {
    if (!value.is_array()) type_error("an array", value);
    return value.as_array();
  }

  const json::Object* object_;
  std::string path_;
  std::string last_;  ///< path of the key named last
  std::vector<std::string> allowed_;
};

/// Emits a record's normalized form: every key in declaration order with
/// its value, defaults included. Rules bind input only, so reject() is a
/// no-op here.
class Writer {
 public:
  static constexpr bool kWrites = true;

  void text(const char* key, const std::string& value) {
    object_.emplace_back(key, value);
  }
  void label(const char* key, const std::string& value) { text(key, value); }

  template <typename Int>
  void integer(const char* key, Int value, std::int64_t, std::int64_t) {
    object_.emplace_back(key, static_cast<std::int64_t>(value));
  }

  void real(const char* key, double value, double, double) {
    object_.emplace_back(key, value);
  }

  void boolean(const char* key, bool value) { object_.emplace_back(key, value); }

  template <typename Enum, typename Table>
  void choice(const char* key, Enum value, const Table& names, bool = false) {
    object_.emplace_back(key, name_of(names, value));
  }

  template <typename Index>
  void indices(const char* key, const std::vector<Index>& values, std::int64_t) {
    json::Array array;
    for (const Index index : values) array.emplace_back(static_cast<std::int64_t>(index));
    object_.emplace_back(key, json::Value(std::move(array)));
  }

  void policies(const char* key, const std::vector<std::string>& names) {
    object_.emplace_back(key, json::Value(json::Array(names.begin(), names.end())));
  }

  template <typename Entry>
  void entries(const char* key, const std::vector<Entry>& values, bool,
               const char* excluded = nullptr) {
    if (excluded) return;
    json::Array array;
    for (const Entry& entry : values) array.push_back(write_record(entry));
    object_.emplace_back(key, json::Value(std::move(array)));
  }

  template <typename Declaration>
  void object(const char* key, const char* excluded, Declaration&& write) {
    if (excluded) return;
    Writer writer;
    write(writer);
    object_.emplace_back(key, std::move(writer).value());
  }

  void stages(const char* key, const std::vector<StageSpec>& values,
              const char* excluded) {
    if (excluded || values.empty()) return;
    object_.emplace_back(key, write_stages(values));
  }

  void version(const char* key, std::int64_t value) { object_.emplace_back(key, value); }

  void reject(const std::string&) const {}
  void reject_at(const std::string&, const std::string&) const {}

  json::Value value() && { return json::Value(std::move(object_)); }

 private:
  json::Object object_;
};

/// The record a declaration binds: mutable for the Reader, const for the
/// Writer, so emitting cannot change what it emits.
template <typename IO, typename T>
using Record = std::conditional_t<IO::kWrites, const T, T>;

// --- the schema: one declaration per record ---------------------------------

template <typename IO>
void fields(IO& io, Record<IO, TwoTierConfig>& net) {
  io.integer("racks", net.racks, 2, kMaxRacks);
  io.integer("lasers", net.lasers_per_rack, 1, kMaxPorts);
  io.integer("photodetectors", net.photodetectors_per_rack, 1, kMaxPorts);
  io.real("density", net.density, 0.0, 1.0);
  io.integer("max_edge_delay", net.max_edge_delay, 1, kMaxDelay);
  io.integer("attach_delay", net.attach_delay, 0, kMaxDelay);
  io.integer("fixed_link_delay", net.fixed_link_delay, 0, kMaxDelay);
  io.boolean("allow_self_edges", net.allow_self_edges);
}

template <typename IO>
void fields(IO& io, Record<IO, OversubscribedConfig>& net) {
  io.integer("racks", net.racks, 2, kMaxRacks);
  io.integer("hot_racks", net.hot_racks, 0, kMaxRacks);
  if (net.hot_racks > net.racks) {
    io.reject(std::to_string(net.hot_racks) + " exceeds racks (" +
              std::to_string(net.racks) + ")");
  }
  io.integer("hot_lasers", net.hot_lasers, 1, kMaxPorts);
  io.integer("hot_photodetectors", net.hot_photodetectors, 1, kMaxPorts);
  io.integer("cold_lasers", net.cold_lasers, 1, kMaxPorts);
  io.integer("cold_photodetectors", net.cold_photodetectors, 1, kMaxPorts);
  io.real("density", net.density, 0.0, 1.0);
  io.integer("fast_delay", net.fast_delay, 1, kMaxDelay);
  io.integer("slow_delay", net.slow_delay, 1, kMaxDelay);
  if (net.slow_delay < net.fast_delay) {
    io.reject(std::to_string(net.slow_delay) + " is below fast_delay (" +
              std::to_string(net.fast_delay) + ")");
  }
  io.real("slow_fraction", net.slow_fraction, 0.0, 1.0);
  io.integer("attach_delay", net.attach_delay, 0, kMaxDelay);
  io.integer("fixed_base_delay", net.fixed_base_delay, 0, kMaxDelay);
  io.real("oversubscription", net.oversubscription, 1.0, 64.0);
}

template <typename IO>
void fields(IO& io, Record<IO, ExpanderConfig>& net) {
  io.integer("racks", net.racks, 2, kMaxRacks);
  io.integer("degree", net.degree, 1, kMaxRacks);
  if (net.degree > net.racks - 1) {
    io.reject(std::to_string(net.degree) + " exceeds racks - 1 (" +
              std::to_string(net.racks - 1) + ")");
  }
  io.integer("lasers", net.lasers_per_rack, 1, kMaxPorts);
  io.integer("photodetectors", net.photodetectors_per_rack, 1, kMaxPorts);
  io.integer("min_edge_delay", net.min_edge_delay, 1, kMaxDelay);
  io.integer("max_edge_delay", net.max_edge_delay, 1, kMaxDelay);
  if (net.max_edge_delay < net.min_edge_delay) {
    io.reject(std::to_string(net.max_edge_delay) + " is below min_edge_delay (" +
              std::to_string(net.min_edge_delay) + ")");
  }
  io.integer("attach_delay", net.attach_delay, 0, kMaxDelay);
  io.integer("fixed_link_delay", net.fixed_link_delay, 0, kMaxDelay);
}

template <typename IO>
void fields(IO& io, Record<IO, RotorConfig>& net) {
  io.integer("racks", net.racks, 2, kMaxRacks);
  io.integer("ports", net.ports_per_rack, 1, kMaxPorts);
  io.integer("matchings", net.num_matchings, 0, kMaxRacks);
  if (net.num_matchings > net.racks - 1) {
    io.reject(std::to_string(net.num_matchings) + " exceeds racks - 1 (" +
              std::to_string(net.racks - 1) + "); 0 selects all offsets");
  }
  io.integer("edge_delay", net.edge_delay, 1, kMaxDelay);
  io.integer("attach_delay", net.attach_delay, 0, kMaxDelay);
  io.integer("fixed_link_delay", net.fixed_link_delay, 0, kMaxDelay);
}

template <typename IO>
void fields(IO& io, Record<IO, SuiteTopology>& topology) {
  auto& spec = topology.spec;
  io.label("name", topology.label);
  io.choice("kind", spec.kind, kTopologyKindNames, /*required=*/true);
  switch (spec.kind) {
    case TopologySpec::Kind::TwoTier:
      fields(io, spec.two_tier);
      break;
    case TopologySpec::Kind::Crossbar:
      io.integer("ports", spec.crossbar_ports, 2, kMaxRacks);
      break;
    case TopologySpec::Kind::Oversubscribed:
      fields(io, spec.oversubscribed);
      break;
    case TopologySpec::Kind::Expander:
      fields(io, spec.expander);
      break;
    case TopologySpec::Kind::Rotor:
      fields(io, spec.rotor);
      break;
  }
  io.integer("seed_salt", spec.seed_salt, 0, kMaxInt);
  io.boolean("fixed_wiring", spec.fixed_wiring);
}

/// Shape keys shared by batch workloads and stream traffic.
template <typename IO>
void shape_fields(IO& io, Record<IO, WorkloadConfig>& shape) {
  io.choice("skew", shape.skew, kPairSkewNames);
  io.real("zipf_exponent", shape.zipf_exponent, 0.0, 8.0);
  io.real("hotspot_fraction", shape.hotspot_fraction, 0.0, 1.0);
  io.choice("weights", shape.weights, kWeightDistNames);
  io.integer("weight_max", shape.weight_max, 1, 1'000'000'000);
  io.real("pareto_shape", shape.pareto_shape, 1.01, 16.0);
  io.real("elephant_fraction", shape.elephant_fraction, 0.0, 1.0);
}

template <typename IO>
void fields(IO& io, Record<IO, SuiteWorkload>& workload) {
  auto& config = workload.config;
  io.label("name", workload.label);
  io.integer("packets", config.num_packets, 1, 10'000'000);
  io.real("rate", config.arrival_rate, 1e-6, 1e6);
  shape_fields(io, config);
  io.boolean("bursty", config.bursty);
  io.real("burst_off_prob", config.burst_off_prob, 0.0, 0.999);
}

template <typename IO>
void fields(IO& io, Record<IO, SuiteTraffic>& traffic) {
  auto& config = traffic.config;
  io.label("name", traffic.label);
  io.choice("process", config.process, kArrivalProcessNames);
  io.real("rho", config.rho, 1e-6, 8.0);
  io.choice("capacity_model", config.capacity_model, kCapacityModelNames);
  shape_fields(io, config.shape);
  io.real("on_stay", config.on_stay, 0.0, 0.999);
  io.real("off_stay", config.off_stay, 0.0, 0.999);
  io.real("max_zero_demand_fraction", config.max_zero_demand_fraction, 0.0, 1.0);
}

template <typename IO>
void fields(IO& io, Record<IO, SuiteEngine>& engine) {
  auto& options = engine.options;
  io.label("name", engine.label);
  io.integer("speedup", options.speedup_rounds, 1, 16);
  io.integer("capacity", options.endpoint_capacity, 1, 64);
  io.integer("reconfig_delay", options.reconfig_delay, 0, kMaxDelay);
  if (options.reconfig_delay > 0 && options.endpoint_capacity != 1) {
    io.reject("requires capacity == 1 (the engine's reconfiguration-delay "
              "extension is defined on the matching model)");
  }
  io.boolean("audit", options.audit);
  // Observability: cells run with the engine probe on and their rows grow
  // phase_<name>_ns metrics. Aggregates only -- no raw-span ring; the
  // rdcn_cli profile subcommand is the trace-export front end.
  io.boolean("profile", options.probe.enabled);
}

/// A stage traffic override is in range or -1, which inherits the traffic
/// axis; the declared range admits -1, this rejects the gap above it.
bool bad_override(double value) { return value != -1.0 && !(value > 0.0); }

template <typename IO>
void fields(IO& io, Record<IO, StageSpec>& stage) {
  const std::string inherit = ", or -1 to inherit the traffic axis";
  auto& mutation = stage.mutation;
  io.integer("duration", stage.duration, 0, 1'000'000'000'000);
  io.real("rho", stage.rho, -1.0, 8.0);
  if (bad_override(stage.rho)) io.reject("must be positive" + inherit);
  io.real("on_stay", stage.on_stay, -1.0, 0.999);
  if (bad_override(stage.on_stay)) io.reject("must be in (0, 1)" + inherit);
  io.real("off_stay", stage.off_stay, -1.0, 0.999);
  if (bad_override(stage.off_stay)) io.reject("must be in (0, 1)" + inherit);
  io.indices("kill_edges", mutation.kill_edges, kMaxIndex);
  io.indices("restore_edges", mutation.restore_edges, kMaxIndex);
  io.indices("kill_racks", mutation.kill_racks, kMaxRacks);
  io.indices("restore_racks", mutation.restore_racks, kMaxRacks);
  io.integer("speedup", mutation.speedup_rounds, 0, 16);
  io.integer("capacity", mutation.endpoint_capacity, 0, 64);
  io.choice("dead", mutation.dead_policy, kDeadPolicyNames);
}

template <typename IO>
void seeds_fields(IO& io, Record<IO, SuiteSpec>& suite) {
  io.integer("base", suite.base_seed, 0, kMaxInt);
  io.integer("repetitions", suite.repetitions, 1, 100'000);
}

template <typename IO>
void stream_fields(IO& io, Record<IO, SuiteSpec>& suite) {
  io.integer("warmup", suite.warmup_packets, 0, 100'000'000);
  io.integer("measure", suite.measure_packets, 1, 1'000'000'000);
  io.integer("window", suite.telemetry_window, 1, 1'000'000);
  io.integer("max_steps", suite.max_steps, 0, kMaxInt);
  io.real("step_cap_factor", suite.step_cap_factor, 1.0, 1000.0);
}

/// The suite document. The mode decides which axes it needs.
template <typename IO>
void fields(IO& io, Record<IO, SuiteSpec>& suite) {
  io.text("suite", suite.name);
  if (suite.name.empty()) io.reject("suite name must be non-empty");
  // The name prefixes every cell name, so it obeys the label rule.
  if (suite.name.find('/') != std::string::npos) io.reject(slash_error(suite.name));
  io.choice("mode", suite.mode, kModeNames);
  // Each mode requires its own axis and rejects the other mode's keys,
  // for the reason given beside each.
  const bool batch = suite.mode == SuiteSpec::Mode::Batch;
  const auto batch_only = [batch](const char* why) { return batch ? nullptr : why; };
  const auto stream_only = [batch](const char* why) { return batch ? why : nullptr; };
  io.object("seeds", nullptr, [&suite](auto& seeds) { seeds_fields(seeds, suite); });
  io.policies("policies", suite.policies);
  io.entries("engines", suite.engines, /*required=*/false);
  io.entries("topologies", suite.topologies, /*required=*/true);
  io.entries("workloads", suite.workloads, batch,
             batch_only("only valid when mode is \"batch\" (stream suites describe "
                        "arrivals under \"traffic\")"));
  io.entries("traffic", suite.traffic, !batch,
             stream_only("only valid when mode is \"stream\" (batch suites describe "
                         "finite workloads under \"workloads\")"));
  io.object("stream", stream_only("only valid when mode is \"stream\""),
            [&suite](auto& knobs) { stream_fields(knobs, suite); });
  io.stages("stages", suite.stages,
            stream_only("only valid when mode is \"stream\" (a stage schedule drives "
                        "the open-loop StreamRunner)"));
  // The reconfiguration-delay extension is defined on the matching model,
  // so no stage may raise endpoint capacity under an engine that uses it.
  for (std::size_t i = 0; i < suite.stages.size(); ++i) {
    const int capacity = suite.stages[i].mutation.endpoint_capacity;
    for (const auto& engine : suite.engines) {
      const Delay delay = engine.options.reconfig_delay;
      if (capacity > 1 && delay > 0) {
        io.reject_at("stages[" + std::to_string(i) + "].capacity",
                     std::to_string(capacity) + " requires reconfig_delay == 0, but " +
                         "engine \"" + engine.label + "\" has reconfig_delay " +
                         std::to_string(delay));
      }
    }
  }
}

/// The journal's first line.
struct JournalHeader {
  std::string suite;
  std::int64_t cells = -1;
  std::string spec;  ///< normalized suite text
};

template <typename IO>
void fields(IO& io, Record<IO, JournalHeader>& header) {
  io.version("rdcn_suite_journal", 1);
  io.text("suite", header.suite);  // informational; the spec text is authoritative
  io.integer("cells", header.cells, -1, kMaxInt);
  if (header.cells < 0) io.reject("required key is missing");
  io.text("spec", header.spec);
}

/// One recorded cell of the suite whose cells are named `names`.
struct JournalCell {
  std::int64_t cell = -1;
  std::string name;
  std::string row;  ///< the emitted JSON row, verbatim
};

template <typename IO>
void fields(IO& io, Record<IO, JournalCell>& line,
            const std::vector<std::string>& names) {
  io.integer("cell", line.cell, -1, static_cast<std::int64_t>(names.size()) - 1);
  if (line.cell < 0) io.reject("required key is missing or out of range");
  io.text("name", line.name);
  const std::string& expected = names[static_cast<std::size_t>(line.cell)];
  if (line.name != expected) {
    io.reject("cell " + std::to_string(line.cell) + " is named \"" + expected +
              "\" in the spec, not \"" + line.name + "\"");
  }
  io.text("row", line.row);
}

template <typename Record, typename... Context>
Record read_record(const json::Value& value, const std::string& path,
                   const Context&... context) {
  Record record;
  Reader reader(value, path);
  fields(reader, record, context...);
  reader.finish();
  return record;
}

template <typename Record, typename... Context>
json::Value write_record(const Record& record, const Context&... context) {
  Writer writer;
  fields(writer, record, context...);
  return std::move(writer).value();
}

/// Shared by the suite "stages" key and the standalone schedule document.
std::vector<StageSpec> read_stages(const json::Value& value, const std::string& path) {
  if (!value.is_array()) {
    throw SuiteError(path, std::string("expected an array, found ") + value.type_name());
  }
  const json::Array& entries = value.as_array();
  if (entries.empty()) throw SuiteError(path, "needs at least one stage");
  std::vector<StageSpec> stages(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::string stage_path = path + "[" + std::to_string(i) + "]";
    stages[i] = read_record<StageSpec>(entries[i], stage_path);
    if (stages[i].duration == 0 && i + 1 != entries.size()) {
      throw SuiteError(stage_path + ".duration",
                       "0 (run to the end) is legal for the last stage only");
    }
  }
  return stages;
}

json::Value write_stages(const std::vector<StageSpec>& stages) {
  json::Array array;
  for (const StageSpec& stage : stages) array.push_back(write_record(stage));
  return json::Value(std::move(array));
}

json::Value parse_document(const std::string& json_text) {
  try {
    return json::parse(json_text);
  } catch (const json::ParseError& error) {
    throw SuiteError("", std::string("malformed JSON: ") + error.what());
  }
}

/// Reads a file and parses it; errors lead with the file name (the JSON
/// path survives inside what(), which it prefixes).
template <typename Parse>
auto load_file(const std::string& path, const char* kind, Parse parse) {
  std::ifstream in(path);
  if (!in) throw SuiteError("", std::string("cannot open ") + kind + " file " + path);
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return parse(text.str());
  } catch (const SuiteError& error) {
    throw SuiteError("", path + ": " + error.what());
  }
}

}  // namespace

SuiteSpec parse_suite(const std::string& json_text) {
  SuiteSpec suite = read_record<SuiteSpec>(parse_document(json_text), "");
  if (suite.engines.empty()) suite.engines.push_back({default_label(SuiteEngine{}), {}});
  return suite;
}

SuiteSpec load_suite_file(const std::string& path) {
  return load_file(path, "suite", parse_suite);
}

std::vector<StageSpec> parse_stages_json(const std::string& json_text) {
  return read_stages(parse_document(json_text), "stages");
}

std::vector<StageSpec> load_stages_file(const std::string& path) {
  return load_file(path, "stages", parse_stages_json);
}

std::string suite_to_json(const SuiteSpec& spec) {
  return json::dump(write_record(spec), 2) + "\n";
}

// --- grid expansion ---------------------------------------------------------

namespace {

/// One cell of the expanded grid, before the policy fan-out.
struct GridCell {
  std::string name;  ///< "<suite>/<topology>/<workload or traffic>/<engine>"
  const SuiteTopology* topology;
  std::size_t variant;  ///< index into workloads (batch) or traffic (stream)
  const std::string* variant_label;
  const SuiteEngine* engine;
};

/// The grid in run order: topology-major, then workload (batch) or
/// traffic (stream), then engine. This is the one place the order is
/// written; both grids, cell_names(), the row headers and the journal
/// read it.
std::vector<GridCell> walk_grid(const SuiteSpec& spec) {
  const bool batch = spec.mode == SuiteSpec::Mode::Batch;
  const std::size_t variants = batch ? spec.workloads.size() : spec.traffic.size();
  std::vector<GridCell> cells;
  cells.reserve(spec.topologies.size() * variants * spec.engines.size());
  for (const SuiteTopology& topology : spec.topologies) {
    for (std::size_t v = 0; v < variants; ++v) {
      const std::string& variant =
          batch ? spec.workloads[v].label : spec.traffic[v].label;
      for (const SuiteEngine& engine : spec.engines) {
        std::string name =
            spec.name + "/" + topology.label + "/" + variant + "/" + engine.label;
        cells.push_back({std::move(name), &topology, v, &variant, &engine});
      }
    }
  }
  return cells;
}

}  // namespace

std::vector<ScenarioSpec> suite_batch_grid(const SuiteSpec& spec) {
  if (spec.mode != SuiteSpec::Mode::Batch) {
    throw SuiteError("mode", "suite_batch_grid needs a batch suite");
  }
  std::vector<ScenarioSpec> grid;
  for (const GridCell& cell : walk_grid(spec)) {
    ScenarioSpec& scenario = grid.emplace_back();
    scenario.name = cell.name;
    scenario.topology = cell.topology->spec;
    scenario.workload = spec.workloads[cell.variant].config;
    scenario.engine = cell.engine->options;
    scenario.base_seed = spec.base_seed;
    scenario.repetitions = spec.repetitions;
  }
  return grid;
}

std::vector<StreamSpec> suite_stream_grid(const SuiteSpec& spec) {
  if (spec.mode != SuiteSpec::Mode::Stream) {
    throw SuiteError("mode", "suite_stream_grid needs a stream suite");
  }
  std::vector<StreamSpec> grid;
  for (const GridCell& cell : walk_grid(spec)) {
    StreamSpec& stream = grid.emplace_back();
    stream.name = cell.name;
    stream.topology = cell.topology->spec;
    stream.traffic = spec.traffic[cell.variant].config;
    stream.traffic.speedup_rounds = cell.engine->options.speedup_rounds;
    stream.engine = cell.engine->options;
    stream.base_seed = spec.base_seed;
    stream.repetitions = spec.repetitions;
    stream.warmup_packets = spec.warmup_packets;
    stream.measure_packets = spec.measure_packets;
    stream.telemetry_window = spec.telemetry_window;
    stream.max_steps = spec.max_steps;
    stream.step_cap_factor = spec.step_cap_factor;
    stream.stages = spec.stages;
  }
  return grid;
}

// --- execution --------------------------------------------------------------

SuiteRunner::SuiteRunner(SuiteSpec spec) : spec_(std::move(spec)) {}

std::size_t SuiteRunner::grid_cells() const noexcept {
  const std::size_t axis = spec_.mode == SuiteSpec::Mode::Batch ? spec_.workloads.size()
                                                                : spec_.traffic.size();
  return spec_.topologies.size() * axis * spec_.engines.size();
}

std::vector<std::string> SuiteRunner::cell_names() const {
  std::vector<std::string> names;
  names.reserve(cells());
  for (const GridCell& cell : walk_grid(spec_)) {
    for (const std::string& policy : spec_.policies) {
      names.push_back(cell.name + " x " + policy);
    }
  }
  return names;
}

namespace {

/// A row's leading keys: the suite, the policy and the cell's axis labels.
json::Object line_header(const SuiteSpec& spec, const GridCell& cell,
                         const std::string& policy) {
  json::Object params;
  params.emplace_back("scenario", cell.name);
  params.emplace_back("topology", cell.topology->label);
  params.emplace_back("kind", to_string(cell.topology->spec.kind));
  params.emplace_back(spec.mode == SuiteSpec::Mode::Batch ? "workload" : "traffic",
                      *cell.variant_label);
  params.emplace_back("engine", cell.engine->label);
  params.emplace_back("mode", name_of(kModeNames, spec.mode));
  params.emplace_back("base_seed", static_cast<std::int64_t>(spec.base_seed));
  params.emplace_back("reps", static_cast<std::int64_t>(spec.repetitions));

  json::Object line;
  line.emplace_back("bench", spec.name);
  line.emplace_back("name", policy);
  line.emplace_back("params", json::Value(std::move(params)));
  return line;
}

/// "profile" cells: per-phase self time (summed across repetitions) as
/// phase_<name>_ns metrics, so suite diffs can track where time went.
void append_phase_metrics(json::Object& line, const ProbeReport& probe) {
  if (!probe.enabled) return;
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    line.emplace_back(std::string("phase_") + to_string(static_cast<Phase>(i)) + "_ns",
                      static_cast<std::int64_t>(probe.phase_self_ns[i]));
  }
}

/// Staged cells: one "stages" array with per-stage recovery metrics
/// aggregated across repetitions -- counts summed, entry backlog and
/// time-to-drain averaged (drain only over the reps that did drain;
/// drained_reps says how many that was), latency percentiles over the
/// merged per-stage histograms (the -1 sentinel when nothing completed).
void append_stage_metrics(json::Object& line, const StreamResult& result) {
  if (result.repetitions.empty() || result.repetitions.front().stages.empty()) return;
  const std::size_t num_stages = result.repetitions.front().stages.size();
  const auto reps = static_cast<double>(result.repetitions.size());
  json::Array stages;
  for (std::size_t k = 0; k < num_stages; ++k) {
    std::uint64_t offered = 0, served = 0, dropped = 0, requeued = 0;
    double entry_backlog = 0.0, drain = 0.0;
    std::int64_t drained_reps = 0;
    LatencyHistogram latency;
    for (const StreamRepOutcome& rep : result.repetitions) {
      const StageOutcome& stage = rep.stages[k];
      offered += stage.offered;
      served += stage.served;
      dropped += stage.dropped;
      requeued += stage.requeued;
      entry_backlog += static_cast<double>(stage.entry_backlog);
      if (stage.drain_steps >= 0) {
        drain += static_cast<double>(stage.drain_steps);
        ++drained_reps;
      }
      latency.merge(stage.latency);
    }
    const StageOutcome& first = result.repetitions.front().stages[k];
    json::Object object;
    object.emplace_back("stage", static_cast<std::int64_t>(k));
    object.emplace_back("start", static_cast<std::int64_t>(first.start));
    object.emplace_back("edges_killed", static_cast<std::int64_t>(first.edges_killed));
    object.emplace_back("edges_restored",
                        static_cast<std::int64_t>(first.edges_restored));
    object.emplace_back("offered", static_cast<std::int64_t>(offered));
    object.emplace_back("served", static_cast<std::int64_t>(served));
    object.emplace_back("dropped", static_cast<std::int64_t>(dropped));
    object.emplace_back("requeued", static_cast<std::int64_t>(requeued));
    object.emplace_back("entry_backlog_mean", entry_backlog / reps);
    object.emplace_back("drained_reps", drained_reps);
    object.emplace_back("drain_steps_mean",
                        drained_reps > 0 ? drain / static_cast<double>(drained_reps)
                                         : -1.0);
    object.emplace_back("p50", latency.empty() ? std::int64_t{-1}
                                               : static_cast<std::int64_t>(latency.p50()));
    object.emplace_back("p99", latency.empty() ? std::int64_t{-1}
                                               : static_cast<std::int64_t>(latency.p99()));
    stages.push_back(json::Value(std::move(object)));
  }
  line.emplace_back("stages", json::Value(std::move(stages)));
}

/// Isolate-mode error row: the cell header plus the structured failure
/// ("status": "failed", exception type + message, the losing repetition
/// and how many attempts it got). Healthy rows carry no "status" key, so
/// downstream strict parsers can reject mixed streams loudly instead of
/// averaging error rows into metrics.
std::string render_error_row(json::Object line, const CellError& error) {
  line.emplace_back("status", "failed");
  line.emplace_back("error_type", error.type);
  line.emplace_back("error_message", error.message);
  line.emplace_back("repetition", static_cast<std::int64_t>(error.repetition));
  line.emplace_back("attempts", static_cast<std::int64_t>(error.attempts));
  return json::dump(json::Value(std::move(line)));
}

std::string render_row(const SuiteSpec& spec, const GridCell& cell,
                       const ScenarioResult& result) {
  json::Object line = line_header(spec, cell, result.policy);
  if (result.error.failed) return render_error_row(std::move(line), result.error);
  line.emplace_back("total_cost", result.cost.mean());
  line.emplace_back("wall_ms", result.wall_ms.mean());
  line.emplace_back("cost_stddev", result.cost.stddev());
  line.emplace_back("cost_min", result.cost.min());
  line.emplace_back("cost_max", result.cost.max());
  append_phase_metrics(line, result.probe);
  return json::dump(json::Value(std::move(line)));
}

std::string render_row(const SuiteSpec& spec, const GridCell& cell,
                       const StreamResult& result) {
  json::Object line = line_header(spec, cell, result.policy);
  if (result.error.failed) return render_error_row(std::move(line), result.error);
  double total_cost = 0.0;
  for (const StreamRepOutcome& rep : result.repetitions) total_cost += rep.total_cost;
  if (!result.repetitions.empty()) {
    total_cost /= static_cast<double>(result.repetitions.size());
  }
  line.emplace_back("total_cost", total_cost);
  line.emplace_back("wall_ms", result.wall_ms.mean());
  line.emplace_back("throughput", result.throughput.mean());
  line.emplace_back("measured_rho", result.measured_rho.mean());
  // `latency` folds converged repetitions only (truncated reps are a
  // censored sample, kept apart in latency_truncated); when every rep
  // truncated, the percentiles have no sample and emit the -1 sentinel.
  line.emplace_back("mean_latency", result.latency.mean());
  const bool has_latency = !result.latency.empty();
  line.emplace_back("p50", has_latency ? static_cast<std::int64_t>(result.latency.p50())
                                       : std::int64_t{-1});
  line.emplace_back("p95", has_latency ? static_cast<std::int64_t>(result.latency.p95())
                                       : std::int64_t{-1});
  line.emplace_back("p99", has_latency ? static_cast<std::int64_t>(result.latency.p99())
                                       : std::int64_t{-1});
  line.emplace_back("backlog", result.backlog.mean());
  line.emplace_back("truncated_reps", static_cast<std::int64_t>(result.truncated_reps));
  {
    json::Array flags;
    for (const StreamRepOutcome& rep : result.repetitions) flags.emplace_back(rep.truncated);
    line.emplace_back("rep_truncated", json::Value(std::move(flags)));
  }
  line.emplace_back("zero_demand", static_cast<std::int64_t>(result.zero_demand));
  line.emplace_back("dropped", static_cast<std::int64_t>(result.dropped));
  line.emplace_back("requeued", static_cast<std::int64_t>(result.requeued));
  append_stage_metrics(line, result);
  append_phase_metrics(line, result.probe);
  return json::dump(json::Value(std::move(line)));
}

/// A journal's text; load_suite_journal prefixes every error with the file.
SuiteJournal parse_journal(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  if (lines.empty()) throw SuiteError("", "empty journal");

  const auto parse_line = [&lines](std::size_t index) {
    try {
      return json::parse(lines[index]);
    } catch (const json::ParseError& error) {
      throw SuiteError("", "journal line " + std::to_string(index + 1) +
                               " is not valid JSON: " + error.what());
    }
  };

  JournalHeader header = read_record<JournalHeader>(parse_line(0), "");

  SuiteJournal journal;
  journal.spec_json = std::move(header.spec);
  try {
    journal.spec = parse_suite(journal.spec_json);
  } catch (const SuiteError& error) {
    throw SuiteError("", std::string("embedded spec is invalid: ") + error.what());
  }
  const SuiteRunner probe(journal.spec);
  const std::size_t total = probe.cells();
  if (static_cast<std::size_t>(header.cells) != total) {
    throw SuiteError("", "header declares " + std::to_string(header.cells) +
                             " cells but the embedded spec expands to " +
                             std::to_string(total));
  }
  const std::vector<std::string> names = probe.cell_names();

  journal.rows.assign(total, std::string());
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const json::Value entry_doc = parse_line(i);
    const std::string where = "journal line " + std::to_string(i + 1);
    try {
      JournalCell entry = read_record<JournalCell>(entry_doc, "", names);
      const auto index = static_cast<std::size_t>(entry.cell);
      if (!journal.rows[index].empty()) {
        throw SuiteError("cell",
                         "cell " + std::to_string(entry.cell) + " recorded twice");
      }
      json::parse(entry.row);  // rows must themselves be strict JSON
      journal.rows[index] = std::move(entry.row);
    } catch (const json::ParseError& error) {
      throw SuiteError("", where + " row is not valid JSON: " + error.what());
    } catch (const SuiteError& error) {
      throw SuiteError("", where + ": " + error.what());
    }
  }
  return journal;
}

}  // namespace

SuiteJournal load_suite_journal(const std::string& path) {
  return load_file(path, "journal", parse_journal);
}

std::vector<std::string> SuiteRunner::run(const SuiteRunOptions& options,
                                          const SuiteJournal* resume) const {
  const std::vector<GridCell> grid = walk_grid(spec_);
  const std::vector<std::string> names = cell_names();
  const std::size_t policies = spec_.policies.size();
  const std::size_t total = names.size();
  const std::string spec_json = suite_to_json(spec_);

  std::vector<std::string> rows(total);
  if (resume != nullptr) {
    if (resume->spec_json != spec_json) {
      throw SuiteError("", "journal does not belong to this suite (normalized specs "
                           "differ); resume refused");
    }
    if (resume->rows.size() != total) {
      throw SuiteError("", "journal records " + std::to_string(resume->rows.size()) +
                               " cells, suite has " + std::to_string(total));
    }
    rows = resume->rows;
  }

  // The journal is the whole manifest, rewritten via write-temp-fsync-
  // rename after every completed cell: at any instant the file on disk is
  // a complete, valid journal, so SIGKILL at any byte loses at most the
  // in-flight cells. Rows are stored verbatim, which is what makes a
  // resumed run's merged output bit-identical to an uninterrupted one.
  std::mutex journal_mutex;
  const auto write_journal = [&]() {
    const JournalHeader header{spec_.name, static_cast<std::int64_t>(total), spec_json};
    std::string text = json::dump(write_record(header));
    text += '\n';
    for (std::size_t i = 0; i < total; ++i) {
      if (rows[i].empty()) continue;
      const JournalCell entry{static_cast<std::int64_t>(i), names[i], rows[i]};
      text += json::dump(write_record(entry, names));
      text += '\n';
    }
    atomic_write_file(options.journal, text);
  };
  if (!options.journal.empty()) {
    // Persist the header (plus any resumed rows) up front: a run killed
    // before its first cell completes still leaves a resumable journal.
    const std::lock_guard<std::mutex> lock(journal_mutex);
    write_journal();
  }
  const auto record = [&](std::size_t global, std::string row) {
    const std::lock_guard<std::mutex> lock(journal_mutex);
    rows[global] = std::move(row);
    if (!options.journal.empty()) write_journal();
  };

  // One enqueue/record path for both modes. Only cells the journal does
  // not already record are enqueued; global_of maps the runner's dense
  // cell index back to the suite index.
  BatchRunner runner(options.threads);
  runner.set_policy(options.policy);
  std::vector<std::size_t> global_of;
  const auto enqueue = [&](const auto& specs, const auto& add) {
    for (std::size_t global = 0; global < total; ++global) {
      if (!rows[global].empty()) continue;
      add(specs[global / policies], named_policy(spec_.policies[global % policies]));
      global_of.push_back(global);
    }
  };
  const auto on_cell_done = [&](std::size_t cell, const auto& result) {
    const std::size_t global = global_of[cell];
    record(global, render_row(spec_, grid[global / policies], result));
  };
  if (spec_.mode == SuiteSpec::Mode::Batch) {
    enqueue(suite_batch_grid(spec_), [&](const ScenarioSpec& cell, PolicyFactory policy) {
      runner.add(cell, std::move(policy));
    });
    runner.run(on_cell_done);
  } else {
    enqueue(suite_stream_grid(spec_), [&](const StreamSpec& cell, PolicyFactory policy) {
      runner.add_stream(cell, std::move(policy));
    });
    runner.run_streams(on_cell_done);
  }

  for (std::size_t i = 0; i < total; ++i) {
    if (rows[i].empty()) {
      throw SuiteError("", "internal: cell " + std::to_string(i) + " (" + names[i] +
                               ") produced no row");
    }
  }
  return rows;
}

}  // namespace rdcn

#pragma once

// Single-edit mutations of a JSON document, for the suite codec's
// property test: every value replaced by samples of every JSON type,
// every object member and array element deleted, and the original text
// truncated at every byte. Each mutation carries the JSON path of the
// slot it edited, in SuiteError's format ("topologies[2].density").

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace rdcn {

struct Mutation {
  enum class Kind { Replace, Delete, Truncate };
  Kind kind;
  /// The edited value's path. A deleted object member is its own slot; a
  /// deleted array element's slot is the array; a truncation's is the
  /// whole document ("").
  std::string slot;
  std::string text;  ///< the mutated document
};

/// Every JSON type, with boundary numbers and names the suite schema uses.
inline std::vector<json::Value> sample_values() {
  return {
      json::Value(),
      json::Value(true),
      json::Value(false),
      json::Value(0),
      json::Value(-1),
      json::Value(2),
      json::Value(4097),
      json::Value(std::numeric_limits<std::int64_t>::max()),
      json::Value(0.5),
      json::Value(-2.5),
      json::Value(1e9),
      json::Value(""),
      json::Value("x"),
      json::Value("a/b"),
      json::Value("stream"),
      json::Value("crossbar"),
      json::Value(json::Array{}),
      json::Value(json::Array{json::Value(0)}),
      json::Value(json::Array{json::Value("alg")}),
      json::Value(json::Object{}),
      json::Value(json::Object{{"a", json::Value(1)}}),
  };
}

namespace mutation_detail {

/// One value of the tree: the member/element positions that reach it.
struct Slot {
  std::vector<std::size_t> route;
  std::string path;
  std::string container;  ///< path of the object or array holding it
  bool member = false;    ///< an object member (else an array element)
};

inline void collect(const json::Value& node, std::vector<std::size_t>& route,
                    const std::string& path, std::vector<Slot>& out) {
  if (node.is_object()) {
    const json::Object& members = node.as_object();
    for (std::size_t i = 0; i < members.size(); ++i) {
      route.push_back(i);
      const std::string child =
          path.empty() ? members[i].first : path + "." + members[i].first;
      out.push_back({route, child, path, true});
      collect(members[i].second, route, child, out);
      route.pop_back();
    }
  } else if (node.is_array()) {
    const json::Array& elements = node.as_array();
    for (std::size_t i = 0; i < elements.size(); ++i) {
      route.push_back(i);
      const std::string child = path + "[" + std::to_string(i) + "]";
      out.push_back({route, child, path, false});
      collect(elements[i], route, child, out);
      route.pop_back();
    }
  }
}

/// A copy of `node` with the value at `route` replaced by `*with`, or
/// deleted when `with` is null.
inline json::Value edit(const json::Value& node, const std::vector<std::size_t>& route,
                        std::size_t depth, const json::Value* with) {
  if (depth == route.size()) return *with;
  const std::size_t at = route[depth];
  const bool erase = with == nullptr && depth + 1 == route.size();
  if (node.is_object()) {
    json::Object members = node.as_object();
    if (erase) {
      members.erase(members.begin() + static_cast<std::ptrdiff_t>(at));
    } else {
      members[at].second = edit(members[at].second, route, depth + 1, with);
    }
    return json::Value(std::move(members));
  }
  json::Array elements = node.as_array();
  if (erase) {
    elements.erase(elements.begin() + static_cast<std::ptrdiff_t>(at));
  } else {
    elements[at] = edit(elements[at], route, depth + 1, with);
  }
  return json::Value(std::move(elements));
}

}  // namespace mutation_detail

/// Calls visit(mutation) for every single edit of `text` (a valid JSON
/// document): replacements and deletions of every value, then every
/// proper prefix of the text.
template <typename Visit>
void for_each_mutation(const std::string& text, Visit&& visit) {
  const json::Value root = json::parse(text);
  std::vector<mutation_detail::Slot> slots{{{}, "", "", false}};
  std::vector<std::size_t> route;
  mutation_detail::collect(root, route, "", slots);
  const std::vector<json::Value> samples = sample_values();
  for (const mutation_detail::Slot& slot : slots) {
    for (const json::Value& sample : samples) {
      visit(Mutation{Mutation::Kind::Replace, slot.path,
                     json::dump(mutation_detail::edit(root, slot.route, 0, &sample), 2)});
    }
    if (slot.route.empty()) continue;  // the document itself is not deletable
    visit(Mutation{Mutation::Kind::Delete, slot.member ? slot.path : slot.container,
                   json::dump(mutation_detail::edit(root, slot.route, 0, nullptr), 2)});
  }
  for (std::size_t length = 0; length < text.size(); ++length) {
    visit(Mutation{Mutation::Kind::Truncate, "", text.substr(0, length)});
  }
}

}  // namespace rdcn

#pragma once

// Enum name tables. Each enum that suite files or rdcn_cli flags name
// keeps one array of {value, name} pairs beside its to_string; to_string,
// the suite reader and writer, and the CLI flag parsers all look names up
// there, so every name is spelled once.

#include <string>
#include <utility>

namespace rdcn {

template <typename Enum>
using EnumName = std::pair<Enum, const char*>;

/// The name of `value`, or "?" when the table does not list it.
template <typename Table, typename Enum>
const char* name_of(const Table& names, Enum value) {
  for (const auto& [entry, name] : names) {
    if (entry == value) return name;
  }
  return "?";
}

/// Sets `value` to the enumerator named `text`; false (and `value`
/// untouched) when no entry has that name.
template <typename Table, typename Enum>
bool value_of(const Table& names, const std::string& text, Enum& value) {
  for (const auto& [entry, name] : names) {
    if (text == name) {
      value = entry;
      return true;
    }
  }
  return false;
}

/// " a b c": every name in table order, each after one space (the tail
/// of an "unknown value" message).
template <typename Table>
std::string known_names(const Table& names) {
  std::string known;
  for (const auto& entry : names) known += std::string(" ") + entry.second;
  return known;
}

}  // namespace rdcn

// BenchReport emits one JSON object per row; downstream tooling parses
// those lines, so every emitted line must be strictly valid JSON.
// Historically NaN (from, e.g., Summary::min()/max() on an empty summary)
// leaked through as the bare token `nan`, which no JSON parser accepts --
// non-finite numbers must come out as null.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>

#include "common.hpp"  // bench/common.hpp (header-only report harness)
#include "util/stats.hpp"

namespace rdcn {
namespace {

/// Minimal strict JSON validator (objects/arrays/strings/numbers/bools/
/// null) -- enough to prove a line parses without hauling in a library.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool parse() {
    skip_space();
    if (!value()) return false;
    skip_space();
    return position_ == text_.size();
  }

 private:
  bool value() {
    if (position_ >= text_.size()) return false;
    switch (text_[position_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++position_;  // '{'
    skip_space();
    if (consume('}')) return true;
    while (true) {
      skip_space();
      if (!string()) return false;
      skip_space();
      if (!consume(':')) return false;
      skip_space();
      if (!value()) return false;
      skip_space();
      if (consume('}')) return true;
      if (!consume(',')) return false;
    }
  }

  bool array() {
    ++position_;  // '['
    skip_space();
    if (consume(']')) return true;
    while (true) {
      skip_space();
      if (!value()) return false;
      skip_space();
      if (consume(']')) return true;
      if (!consume(',')) return false;
    }
  }

  bool string() {
    if (!consume('"')) return false;
    while (position_ < text_.size() && text_[position_] != '"') {
      if (text_[position_] == '\\') {
        ++position_;
        if (position_ >= text_.size()) return false;
      }
      ++position_;
    }
    return consume('"');
  }

  bool number() {
    const std::size_t start = position_;
    consume('-');
    while (position_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[position_])) ||
            text_[position_] == '.' || text_[position_] == 'e' ||
            text_[position_] == 'E' || text_[position_] == '+' ||
            text_[position_] == '-')) {
      ++position_;
    }
    if (position_ == start) return false;
    // Re-parse with strtod to reject malformed shapes like "1.2.3" / "-".
    std::size_t consumed = 0;
    try {
      (void)std::stod(text_.substr(start, position_ - start), &consumed);
    } catch (...) {
      return false;
    }
    return consumed == position_ - start;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (text_.compare(position_, w.size(), w) != 0) return false;
    position_ += w.size();
    return true;
  }

  bool consume(char c) {
    if (position_ < text_.size() && text_[position_] == c) {
      ++position_;
      return true;
    }
    return false;
  }

  void skip_space() {
    while (position_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[position_]))) {
      ++position_;
    }
  }

  const std::string& text_;
  std::size_t position_ = 0;
};

TEST(BenchReport, EveryEmittedLineParsesAsJson) {
  bench::BenchReport report("json_validity");
  report.add("plain", 12.5, 0.25).param("rho", 0.9).param("reps", std::int64_t{3});
  report.add("escaped \"name\"\n", 1.0, 2.0).param("note", "tab\there \\ quote\"");
  report.add("extras", 3.0, 4.0).value("p99", 17.0).value("throughput", 0.125);
  for (const std::string& line : report.json_lines()) {
    EXPECT_TRUE(JsonParser(line).parse()) << line;
  }
}

TEST(BenchReport, NonFiniteNumbersBecomeNull) {
  // The empty-Summary path that used to leak `nan` into the JSON.
  Summary empty;
  ASSERT_TRUE(std::isnan(empty.min()));
  ASSERT_TRUE(std::isnan(empty.max()));

  bench::BenchReport report("nan_regression");
  report.add("empty-summary", empty.min(), empty.max())
      .param("positive_infinity", std::numeric_limits<double>::infinity())
      .value("negative_infinity", -std::numeric_limits<double>::infinity())
      .value("not_a_number", std::numeric_limits<double>::quiet_NaN())
      .value("fine", 1.25);
  const auto lines = report.json_lines();
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines.front();
  EXPECT_TRUE(JsonParser(line).parse()) << line;
  // No bare non-finite tokens anywhere in the emitted values.
  EXPECT_EQ(line.find(":nan"), std::string::npos) << line;
  EXPECT_EQ(line.find(":inf"), std::string::npos) << line;
  EXPECT_EQ(line.find(":-inf"), std::string::npos) << line;
  EXPECT_NE(line.find("\"total_cost\":null"), std::string::npos) << line;
  EXPECT_NE(line.find("\"wall_ms\":null"), std::string::npos) << line;
  EXPECT_NE(line.find("\"not_a_number\":null"), std::string::npos) << line;
  EXPECT_NE(line.find("\"fine\":1.25"), std::string::npos) << line;
}

TEST(BenchReport, JsonNumberFormatsFinitesAndRejectsNonFinites) {
  EXPECT_EQ(bench::json_number(2.5), "2.5");
  EXPECT_EQ(bench::json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(bench::json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(bench::json_number(-std::numeric_limits<double>::infinity()), "null");
}

}  // namespace
}  // namespace rdcn

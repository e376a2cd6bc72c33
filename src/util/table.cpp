#include "util/table.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace rdcn {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("Table row arity mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string Table::fmt(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

std::string Table::fmt(std::int64_t value) { return std::to_string(value); }
std::string Table::fmt(std::uint64_t value) { return std::to_string(value); }

std::string Table::to_ascii() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "| " : " | ");
      out << row[c];
      out << std::string(widths[c] - row[c].size(), ' ');
    }
    out << " |\n";
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << (c == 0 ? "|-" : "-|-") << std::string(widths[c], '-');
  }
  out << "-|\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

void Table::print(const std::string& title) const {
  std::printf("\n=== %s ===\n%s", title.c_str(), to_ascii().c_str());
  std::fflush(stdout);
}

}  // namespace rdcn

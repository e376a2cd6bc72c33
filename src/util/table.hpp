#pragma once

// ASCII table / CSV emitter. Every bench binary prints its experiment's
// rows through this so tables look like the paper's and are greppable.

#include <string>
#include <vector>

namespace rdcn {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends a row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string fmt(double value, int precision = 3);
  static std::string fmt(std::int64_t value);
  static std::string fmt(std::uint64_t value);

  /// Renders an aligned ASCII table with a separator under the header.
  std::string to_ascii() const;

  /// Prints the ASCII form to stdout with a title banner.
  void print(const std::string& title) const;

  std::size_t rows() const noexcept { return rows_.size(); }
  std::size_t columns() const noexcept { return headers_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace rdcn

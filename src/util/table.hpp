// Fixed-width console table printing for benchmark output — every bench
// prints the same rows/series as the corresponding paper table or figure.
#pragma once

#include <string>
#include <vector>

namespace mf::util {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  /// Convenience: formats doubles with `precision` significant digits.
  void add_row_values(const std::vector<double>& values, int precision = 4);

  /// Render with aligned columns.
  std::string str() const;
  void print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double compactly ("1.23e-05", "42.7", ...).
std::string format_double(double v, int precision = 4);

/// Format a double with a fixed number of decimals ("1234.5").
std::string format_fixed(double v, int decimals);

}  // namespace mf::util

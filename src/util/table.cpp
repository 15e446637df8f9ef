#include "util/table.hpp"

#include <cstdio>
#include <iostream>
#include <sstream>

namespace mf::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void Table::add_row_values(const std::vector<double>& values, int precision) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (double v : values) cells.push_back(format_double(v, precision));
  add_row(std::move(cells));
}

std::string Table::str() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << "| " << cells[c] << std::string(widths[c] - cells[c].size() + 1, ' ');
    }
    os << "|\n";
  };
  emit(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << "|" << std::string(widths[c] + 2, '-');
  }
  os << "|\n";
  for (const auto& row : rows_) emit(row);
  return os.str();
}

void Table::print() const { std::cout << str() << std::flush; }

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  return buf;
}

std::string format_fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

}  // namespace mf::util

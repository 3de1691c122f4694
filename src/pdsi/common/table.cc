#include "pdsi/common/table.h"

#include <algorithm>
#include <ostream>
#include <sstream>


namespace pdsi {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      widths[c] = std::max(widths[c], r[c].size());
    }
  }
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << cells[c] << std::string(widths[c] - cells[c].size(), ' ');
      os << (c + 1 < cells.size() ? "  " : "");
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w;
  os << std::string(total + 2 * (widths.size() - 1), '-') << '\n';
  for (const auto& r : rows_) emit(r);
}

std::string Table::to_string() const {
  std::ostringstream oss;
  print(oss);
  return oss.str();
}

void PrintBanner(std::ostream& os, const std::string& title) {
  os << "\n== " << title << " ==\n";
}

}  // namespace pdsi

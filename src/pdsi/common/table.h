// Console table rendering: every benchmark harness prints the rows the
// paper's figure/table reports using this one formatter, so output across
// experiments is uniform and diffable.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace pdsi {

/// A right-padded text table with a header row and a rule line.
///
///   Table t({"ranks", "direct", "plfs", "speedup"});
///   t.row({"512", "84.2 MiB/s", "1.1 GiB/s", "13.4x"});
///   t.print(std::cout);
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Adds a data row; pads or truncates to the header width.
  void row(std::vector<std::string> cells);

  void print(std::ostream& os) const;
  std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints "== title ==" banners so multi-table bench output is scannable.
void PrintBanner(std::ostream& os, const std::string& title);

}  // namespace pdsi

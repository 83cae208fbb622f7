// SPDX-License-Identifier: Apache-2.0
// ASCII table writer used by the benchmark harness to print paper-style
// tables (Table I / Table II rows, figure series).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace mp3d {

class Table {
 public:
  explicit Table(std::string title = {});

  Table& header(std::vector<std::string> cells);
  Table& row(std::vector<std::string> cells);
  /// Horizontal separator between row groups.
  Table& rule();

  std::string to_string() const;
  void print(std::ostream& os) const;

 private:
  struct Row {
    std::vector<std::string> cells;
    bool is_rule = false;
  };
  std::string title_;
  std::vector<std::string> header_;
  std::vector<Row> rows_;
};

/// Format helpers for table cells.
std::string fmt_fixed(double v, int digits);
std::string fmt_pct(double v, int digits = 1);      ///< 0.091 -> "+9.1 %"
std::string fmt_norm(double v, int digits = 3);     ///< normalized value "0.955"
std::string fmt_count(double v);                    ///< 182900 -> "182.9e3"

}  // namespace mp3d

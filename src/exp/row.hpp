// SPDX-License-Identifier: Apache-2.0
// Result rows for the experiment engine: an ordered list of
// (column, value) cells. Suites emit rows from independent scenarios; the
// engine merges them into one CSV (union of columns, first-seen order) and
// one JSON report, both deterministic regardless of how many worker
// threads produced them.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace mp3d::exp {

/// One result row: ordered (column, value) cells. Values are preformatted
/// strings so the CSV bytes are identical no matter where the row was
/// produced; numeric values used by gates travel separately as metrics.
class Row {
 public:
  Row& cell(std::string column, std::string value);
  Row& cell(std::string column, u64 value);
  Row& cell(std::string column, double value, int digits);

  const std::vector<std::pair<std::string, std::string>>& cells() const {
    return cells_;
  }
  /// Value of `column`, or "" when the row does not have it.
  const std::string& get(const std::string& column) const;

 private:
  std::vector<std::pair<std::string, std::string>> cells_;
};

/// The union of all columns across `rows`, in first-seen order.
std::vector<std::string> union_columns(const std::vector<Row>& rows);

/// Render `rows` as CSV text under the union of their columns; cells a
/// row does not define are left empty. RFC-4180 quoting.
std::string rows_to_csv(const std::vector<Row>& rows);

}  // namespace mp3d::exp

// SPDX-License-Identifier: Apache-2.0
#include "exp/row.hpp"

#include "common/table.hpp"

namespace mp3d::exp {

Row& Row::cell(std::string column, std::string value) {
  cells_.emplace_back(std::move(column), std::move(value));
  return *this;
}

Row& Row::cell(std::string column, u64 value) {
  return cell(std::move(column), std::to_string(value));
}

Row& Row::cell(std::string column, double value, int digits) {
  return cell(std::move(column), fmt_norm(value, digits));
}

const std::string& Row::get(const std::string& column) const {
  static const std::string kEmpty;
  for (const auto& [col, value] : cells_) {
    if (col == column) {
      return value;
    }
  }
  return kEmpty;
}

std::vector<std::string> union_columns(const std::vector<Row>& rows) {
  std::vector<std::string> columns;
  for (const Row& row : rows) {
    for (const auto& [col, value] : row.cells()) {
      (void)value;
      bool seen = false;
      for (const std::string& c : columns) {
        if (c == col) {
          seen = true;
          break;
        }
      }
      if (!seen) {
        columns.push_back(col);
      }
    }
  }
  return columns;
}

namespace {

void csv_cell(std::string& out, const std::string& c) {
  if (c.find_first_of(",\"\n") == std::string::npos) {
    out += c;
    return;
  }
  out += '"';
  for (const char ch : c) {
    if (ch == '"') {
      out += '"';
    }
    out += ch;
  }
  out += '"';
}

}  // namespace

std::string rows_to_csv(const std::vector<Row>& rows) {
  const std::vector<std::string> columns = union_columns(rows);
  std::string out;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i != 0) {
      out += ',';
    }
    csv_cell(out, columns[i]);
  }
  out += '\n';
  for (const Row& row : rows) {
    for (std::size_t i = 0; i < columns.size(); ++i) {
      if (i != 0) {
        out += ',';
      }
      csv_cell(out, row.get(columns[i]));
    }
    out += '\n';
  }
  return out;
}

}  // namespace mp3d::exp

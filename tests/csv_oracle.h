#ifndef FAIRRANK_TESTS_CSV_ORACLE_H_
#define FAIRRANK_TESTS_CSV_ORACLE_H_

// Test oracles for src/data/csv.cc: the row-at-a-time CSV reader and the
// cell-at-a-time writer that the streaming ReadCsv and the buffered WriteCsv
// replaced. They are slow and obviously correct — one std::getline, one
// ParseCsvRecord, one std::vector<Cell> and one Table::AppendRow per row;
// one Table::CellToString per written cell — and the streaming code must
// agree with them exactly: the same table, cell for cell with reals
// bit-equal, or the same Status code and message; the same bytes written.
// Shared by tests/csv_test.cc and fuzz/csv_fuzz.cc.

#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/str_util.h"
#include "data/csv.h"
#include "data/table.h"

namespace fairrank::csv_oracle {

/// Reads `in` line by line exactly as ReadCsv did before it streamed.
inline StatusOr<Table> ReadCsvByLine(std::istream& in, const Schema& schema,
                                     const CsvOptions& options) {
  auto strip_bom = [](std::string* line) {
    if (line->size() >= 3 && (*line)[0] == '\xEF' && (*line)[1] == '\xBB' &&
        (*line)[2] == '\xBF') {
      line->erase(0, 3);
    }
  };
  Table table(schema);
  std::string line;
  size_t line_number = 0;
  std::vector<size_t> column_of_attr(schema.num_attributes());
  size_t expected_fields = 0;
  bool width_known = false;

  if (options.has_header) {
    if (!std::getline(in, line)) {
      return Status::InvalidArgument("CSV stream empty: missing header");
    }
    ++line_number;
    strip_bom(&line);
    FAIRRANK_ASSIGN_OR_RETURN(
        std::vector<std::string> header,
        ParseCsvRecord(line, options.delimiter, options.max_field_bytes));
    expected_fields = header.size();
    width_known = true;
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      const std::string& want = schema.attribute(a).name();
      bool found = false;
      for (size_t c = 0; c < header.size(); ++c) {
        if (std::string(Trim(header[c])) == want) {
          column_of_attr[a] = c;
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::NotFound("CSV header has no column named '" + want +
                                "'");
      }
    }
  } else {
    for (size_t a = 0; a < schema.num_attributes(); ++a) column_of_attr[a] = a;
  }

  bool first_data_line = true;
  while (std::getline(in, line)) {
    ++line_number;
    if (options.skip_blank_lines && Trim(line).empty()) continue;
    if (first_data_line) {
      if (!options.has_header) strip_bom(&line);
      first_data_line = false;
    }
    FAIRRANK_ASSIGN_OR_RETURN(
        std::vector<std::string> fields,
        ParseCsvRecord(line, options.delimiter, options.max_field_bytes));
    if (!width_known) {
      expected_fields = fields.size();
      width_known = true;
    } else if (fields.size() != expected_fields) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_number) + ": ragged row with " +
          std::to_string(fields.size()) + " fields, expected " +
          std::to_string(expected_fields));
    }
    if (options.max_rows != 0 && table.num_rows() >= options.max_rows) {
      return Status::ResourceExhausted(
          "CSV exceeds max_rows = " + std::to_string(options.max_rows));
    }
    std::vector<Cell> cells;
    cells.reserve(schema.num_attributes());
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      size_t c = column_of_attr[a];
      if (c >= fields.size()) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) + ": only " +
            std::to_string(fields.size()) + " fields, need column " +
            std::to_string(c + 1) + " for attribute '" +
            schema.attribute(a).name() + "'");
      }
      cells.emplace_back(std::string(Trim(fields[c])));
    }
    Status st = table.AppendRow(cells);
    if (!st.ok()) {
      return Status(st.code(), "line " + std::to_string(line_number) + ": " +
                                   st.message());
    }
  }
  return table;
}

/// Writes `table` one Table::CellToString per cell, exactly as WriteCsv did
/// before it buffered.
inline Status WriteCsvByCell(std::ostream& out, const Table& table,
                             const CsvOptions& options) {
  auto quote_if_needed = [&options](const std::string& field) {
    bool needs_quoting = false;
    for (char c : field) {
      if (c == options.delimiter || c == '"' || c == '\n' || c == '\r') {
        needs_quoting = true;
        break;
      }
    }
    if (!needs_quoting) return field;
    std::string quoted = "\"";
    for (char c : field) {
      if (c == '"') quoted += "\"\"";
      else quoted.push_back(c);
    }
    quoted += "\"";
    return quoted;
  };
  const Schema& schema = table.schema();
  const std::string delim(1, options.delimiter);
  if (options.has_header) {
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      if (a > 0) out << delim;
      out << quote_if_needed(schema.attribute(a).name());
    }
    out << "\n";
  }
  for (size_t row = 0; row < table.num_rows(); ++row) {
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      if (a > 0) out << delim;
      out << quote_if_needed(table.CellToString(row, a));
    }
    out << "\n";
  }
  if (!out) return Status::IOError("CSV write failed");
  return Status::OK();
}

/// "" when `a` and `b` hold the same cells (reals compared bit for bit),
/// else the first difference.
inline std::string TableDifference(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows()) {
    return "rows " + std::to_string(a.num_rows()) + " vs " +
           std::to_string(b.num_rows());
  }
  if (a.num_columns() != b.num_columns()) return "column counts differ";
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const Column& x = a.column(c);
    const Column& y = b.column(c);
    if (x.kind() != y.kind() || x.size() != a.num_rows() ||
        y.size() != b.num_rows()) {
      return "column " + std::to_string(c) + " kind or length differs";
    }
    for (size_t r = 0; r < a.num_rows(); ++r) {
      bool same = true;
      switch (x.kind()) {
        case AttributeKind::kCategorical:
          same = x.CodeAt(r) == y.CodeAt(r);
          break;
        case AttributeKind::kInteger:
          same = x.IntAt(r) == y.IntAt(r);
          break;
        case AttributeKind::kReal: {
          const double u = x.RealAt(r);
          const double v = y.RealAt(r);
          same = std::memcmp(&u, &v, sizeof(double)) == 0;
          break;
        }
      }
      if (!same) {
        return "cell (" + std::to_string(r) + ", " + std::to_string(c) +
               "): " + a.CellToString(r, c) + " vs " + b.CellToString(r, c);
      }
    }
  }
  return "";
}

/// "" when both reads ended alike — identical tables, or failures with the
/// same code and message — else what differs.
inline std::string OutcomeDifference(const StatusOr<Table>& got,
                                     const StatusOr<Table>& want) {
  if (got.ok() != want.ok()) {
    return "got " + (got.ok() ? std::string("a table")
                              : got.status().ToString()) +
           ", oracle " +
           (want.ok() ? std::string("a table") : want.status().ToString());
  }
  if (!got.ok()) {
    if (got.status().code() == want.status().code() &&
        got.status().message() == want.status().message()) {
      return "";
    }
    return "got " + got.status().ToString() + ", oracle " +
           want.status().ToString();
  }
  return TableDifference(*got, *want);
}

}  // namespace fairrank::csv_oracle

#endif  // FAIRRANK_TESTS_CSV_ORACLE_H_

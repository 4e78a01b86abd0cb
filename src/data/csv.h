#ifndef FAIRRANK_DATA_CSV_H_
#define FAIRRANK_DATA_CSV_H_

#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/table.h"

namespace fairrank {

/// Options for CSV parsing.
struct CsvOptions {
  char delimiter = ',';
  /// First row is a header naming the columns. Columns are matched to schema
  /// attributes by name; extra CSV columns are ignored, and every schema
  /// attribute must be present.
  bool has_header = true;
  /// Skip blank lines instead of failing on them.
  bool skip_blank_lines = true;
  /// Maximum number of data rows to accept; 0 = unlimited. Exceeding it
  /// fails with ResourceExhausted — a guard against unbounded memory when
  /// reading untrusted or accidentally huge files.
  size_t max_rows = 0;
  /// Maximum bytes in a single parsed field; 0 = unlimited. Exceeding it
  /// fails with ResourceExhausted (e.g. an unterminated quote swallowing
  /// the rest of a large line).
  size_t max_field_bytes = 0;
};

/// Parses one CSV record with RFC 4180 quoting (quoted fields may contain the
/// delimiter; doubled quotes escape a quote). Fields longer than
/// `max_field_bytes` (0 = unlimited) fail with ResourceExhausted. ReadCsv
/// parses every line containing a quote through this.
StatusOr<std::vector<std::string>> ParseCsvRecord(std::string_view line,
                                                  char delimiter,
                                                  size_t max_field_bytes = 0);

/// Reads a table from a CSV stream against `schema`. With a header, schema
/// attributes are matched by column name; without one, the first
/// schema.num_attributes() columns are used positionally.
///
/// Hardening: a UTF-8 byte-order mark on the first line is stripped; every
/// data row must have exactly as many fields as the header (first data row
/// when there is no header) — ragged rows fail with InvalidArgument rather
/// than silently truncating or misaligning columns.
///
/// Records are lines split on '\n' (a quoted field cannot span lines). The
/// stream is read in 1 MiB blocks and each field is converted straight from
/// the block into its column, with no allocation per row; only the current
/// block (and any single longer line) is held in memory.
StatusOr<Table> ReadCsv(std::istream& in, const Schema& schema,
                        const CsvOptions& options = CsvOptions());

/// Reads a table from a CSV file. See ReadCsv.
StatusOr<Table> ReadCsvFile(const std::string& path, const Schema& schema,
                            const CsvOptions& options = CsvOptions());

/// Writes `table` as CSV (header + one record per row); categorical cells
/// are written as labels, integers in decimal and reals as "%.4f" — the
/// Table::CellToString text. Fields are escaped with CsvEscape under the
/// configured delimiter.
Status WriteCsv(std::ostream& out, const Table& table,
                const CsvOptions& options = CsvOptions());

/// Writes `table` to a CSV file. See WriteCsv.
Status WriteCsvFile(const std::string& path, const Table& table,
                    const CsvOptions& options = CsvOptions());

}  // namespace fairrank

#endif  // FAIRRANK_DATA_CSV_H_

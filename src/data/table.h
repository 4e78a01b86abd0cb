#ifndef FAIRRANK_DATA_TABLE_H_
#define FAIRRANK_DATA_TABLE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/column.h"
#include "data/schema.h"

namespace fairrank {

/// Converts one text field to `spec`'s kind: a category label to its code,
/// an integer, or a finite real, all stored as the Table::AppendConverted
/// entry point expects. `text` is used as given (callers trim). This is the
/// one text conversion behind both AppendRow's string cells and the CSV
/// reader, so both fail with the same codes and messages.
Status ConvertTextCell(std::string_view text, const AttributeSpec& spec,
                       Cell* converted);

/// In-memory columnar table: a Schema plus one Column per attribute. This is
/// the dataset abstraction every other module works against — the worker
/// generator fills one, scoring functions read observed columns from one,
/// and the partition search groups its rows by protected columns.
///
/// Partitions never copy rows; they hold row-index vectors referencing a
/// shared const Table.
class Table {
 public:
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t index) const { return columns_[index]; }

  /// Appends one row. `cells` must have one entry per schema attribute.
  /// Categorical cells may be given as a category label (string) or as an
  /// in-range integer code; numeric cells as int64 or double. Fails with
  /// InvalidArgument / OutOfRange / NotFound on mismatches; on failure the
  /// table is left unchanged.
  Status AppendRow(const std::vector<Cell>& cells);

  /// Appends one row of already-validated values, one per schema attribute:
  /// an in-range int64 code for a categorical attribute, an int64 for an
  /// integer one and a finite double for a real one — what ConvertTextCell
  /// produces. AppendRow validates into this form and then calls it.
  void AppendConverted(const std::vector<Cell>& converted);

  /// Reserves storage for `n` rows in every column.
  void Reserve(size_t n);

  /// Group index of `row` under protected attribute `attr_index`
  /// (category code or numeric bucket). See AttributeSpec::GroupIndexOf*.
  int GroupIndex(size_t row, size_t attr_index) const;

  /// Numeric view of a cell (code, integer, or real as double).
  double ValueAsDouble(size_t row, size_t attr_index) const {
    return columns_[attr_index].AsDouble(row);
  }

  /// Renders a cell for display: category label, integer, or real.
  std::string CellToString(size_t row, size_t attr_index) const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace fairrank

#endif  // FAIRRANK_DATA_TABLE_H_

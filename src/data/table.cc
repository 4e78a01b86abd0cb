#include "data/table.h"

#include <cassert>
#include <cmath>

#include "common/str_util.h"

namespace fairrank {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_attributes());
  for (size_t i = 0; i < schema_.num_attributes(); ++i) {
    columns_.emplace_back(schema_.attribute(i).kind());
  }
}

namespace {

/// Stores a real after the finiteness check both conversions share.
Status ConvertReal(double value, const AttributeSpec& spec, Cell* converted) {
  // NaN/inf would make bucketization undefined behaviour downstream.
  if (!std::isfinite(value)) {
    return Status::InvalidArgument("non-finite value for attribute '" +
                                   spec.name() + "'");
  }
  *converted = value;
  return Status::OK();
}

/// Validates and converts one cell.
Status ConvertCell(const Cell& cell, const AttributeSpec& spec,
                   Cell* converted) {
  if (const std::string* text = std::get_if<std::string>(&cell)) {
    return ConvertTextCell(*text, spec, converted);
  }
  switch (spec.kind()) {
    case AttributeKind::kCategorical: {
      const int64_t* v = std::get_if<int64_t>(&cell);
      if (v == nullptr) {
        return Status::InvalidArgument(
            "real cell given for categorical attribute '" + spec.name() + "'");
      }
      if (*v < 0 || *v >= spec.num_groups()) {
        return Status::OutOfRange("code " + std::to_string(*v) +
                                  " out of range for categorical '" +
                                  spec.name() + "'");
      }
      *converted = *v;
      return Status::OK();
    }
    case AttributeKind::kInteger: {
      const int64_t* v = std::get_if<int64_t>(&cell);
      if (v == nullptr) {
        return Status::InvalidArgument(
            "real cell given for integer attribute '" + spec.name() + "'");
      }
      *converted = *v;
      return Status::OK();
    }
    case AttributeKind::kReal: {
      if (const int64_t* v = std::get_if<int64_t>(&cell)) {
        return ConvertReal(static_cast<double>(*v), spec, converted);
      }
      return ConvertReal(std::get<double>(cell), spec, converted);
    }
  }
  return Status::Internal("unreachable attribute kind");
}

}  // namespace

Status ConvertTextCell(std::string_view text, const AttributeSpec& spec,
                       Cell* converted) {
  switch (spec.kind()) {
    case AttributeKind::kCategorical: {
      FAIRRANK_ASSIGN_OR_RETURN(int code, spec.CodeOf(text));
      *converted = static_cast<int64_t>(code);
      return Status::OK();
    }
    case AttributeKind::kInteger: {
      int64_t value = 0;
      if (!ParseInt64(text, &value)) {
        return Status::InvalidArgument("cannot parse '" + std::string(text) +
                                       "' as integer for attribute '" +
                                       spec.name() + "'");
      }
      *converted = value;
      return Status::OK();
    }
    case AttributeKind::kReal: {
      double value = 0.0;
      if (!ParseDouble(text, &value)) {
        return Status::InvalidArgument("cannot parse '" + std::string(text) +
                                       "' as real for attribute '" +
                                       spec.name() + "'");
      }
      return ConvertReal(value, spec, converted);
    }
  }
  return Status::Internal("unreachable attribute kind");
}

Status Table::AppendRow(const std::vector<Cell>& cells) {
  if (cells.size() != schema_.num_attributes()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(cells.size()) + " cells, schema expects " +
        std::to_string(schema_.num_attributes()));
  }
  // Two-phase append: validate/convert everything first so a mid-row failure
  // cannot leave columns with unequal lengths.
  std::vector<Cell> converted(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    FAIRRANK_RETURN_NOT_OK(
        ConvertCell(cells[i], schema_.attribute(i), &converted[i]));
  }
  AppendConverted(converted);
  return Status::OK();
}

void Table::AppendConverted(const std::vector<Cell>& converted) {
  assert(converted.size() == columns_.size());
  for (size_t i = 0; i < converted.size(); ++i) {
    switch (columns_[i].kind()) {
      case AttributeKind::kCategorical:
        columns_[i].AppendCode(
            static_cast<int32_t>(std::get<int64_t>(converted[i])));
        break;
      case AttributeKind::kInteger:
        columns_[i].AppendInt(std::get<int64_t>(converted[i]));
        break;
      case AttributeKind::kReal:
        columns_[i].AppendReal(std::get<double>(converted[i]));
        break;
    }
  }
  ++num_rows_;
}

void Table::Reserve(size_t n) {
  for (Column& c : columns_) c.Reserve(n);
}

int Table::GroupIndex(size_t row, size_t attr_index) const {
  const AttributeSpec& spec = schema_.attribute(attr_index);
  const Column& col = columns_[attr_index];
  switch (spec.kind()) {
    case AttributeKind::kCategorical:
      return spec.GroupIndexOfInt(col.CodeAt(row));
    case AttributeKind::kInteger:
      return spec.GroupIndexOfInt(col.IntAt(row));
    case AttributeKind::kReal:
      return spec.GroupIndexOfReal(col.RealAt(row));
  }
  return 0;
}

std::string Table::CellToString(size_t row, size_t attr_index) const {
  const AttributeSpec& spec = schema_.attribute(attr_index);
  const Column& col = columns_[attr_index];
  switch (spec.kind()) {
    case AttributeKind::kCategorical:
      return spec.categories()[col.CodeAt(row)];
    case AttributeKind::kInteger:
      return std::to_string(col.IntAt(row));
    case AttributeKind::kReal:
      return FormatDouble(col.RealAt(row), 4);
  }
  return "";
}

}  // namespace fairrank

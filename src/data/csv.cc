#include "data/csv.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>

#include "common/str_util.h"

namespace fairrank {

namespace {

Status FieldTooLong(size_t max_field_bytes) {
  return Status::ResourceExhausted("CSV field exceeds max_field_bytes = " +
                                   std::to_string(max_field_bytes));
}

}  // namespace

StatusOr<std::vector<std::string>> ParseCsvRecord(std::string_view line,
                                                  char delimiter,
                                                  size_t max_field_bytes) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  size_t i = 0;
  while (i < line.size()) {
    if (max_field_bytes != 0 && current.size() > max_field_bytes) {
      return FieldTooLong(max_field_bytes);
    }
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      current.push_back(c);
      ++i;
      continue;
    }
    if (c == '"') {
      if (!current.empty()) {
        return Status::InvalidArgument(
            "unexpected quote inside unquoted field: " + std::string(line));
      }
      in_quotes = true;
      ++i;
      continue;
    }
    if (c == delimiter) {
      fields.push_back(std::move(current));
      current.clear();
      ++i;
      continue;
    }
    if (c == '\r' && i + 1 == line.size()) {
      ++i;  // Tolerate CRLF line endings.
      continue;
    }
    current.push_back(c);
    ++i;
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted field: " +
                                   std::string(line));
  }
  if (max_field_bytes != 0 && current.size() > max_field_bytes) {
    return FieldTooLong(max_field_bytes);
  }
  fields.push_back(std::move(current));
  return fields;
}

namespace {

/// Bytes ReadCsv pulls from its stream at a time, and the size at which
/// WriteCsv flushes its output buffer.
constexpr size_t kBlockBytes = size_t{1} << 20;

/// Hands out the lines of a stream — split on '\n' only, like std::getline —
/// as views into a block buffer, so reading a line allocates nothing. The
/// stream is read kBlockBytes at a time; the unfinished line at the end of
/// a block is moved to the front of the buffer and completed by the next
/// read, and a line that fills the whole buffer doubles it. A view stays
/// valid until the next call to Next.
class LineReader {
 public:
  explicit LineReader(std::istream& in) : in_(in), buffer_(kBlockBytes) {}

  /// The next line, without its '\n'; false once the stream is exhausted.
  /// A final line without a '\n' still counts; an empty tail does not.
  bool Next(std::string_view* line) {
    while (true) {
      const char* base = buffer_.data();
      const void* newline =
          scanned_ < end_ ? std::memchr(base + scanned_, '\n', end_ - scanned_)
                          : nullptr;
      if (newline != nullptr) {
        const size_t at = static_cast<size_t>(
            static_cast<const char*>(newline) - base);
        *line = std::string_view(base + begin_, at - begin_);
        begin_ = scanned_ = at + 1;
        return true;
      }
      scanned_ = end_;
      if (at_end_) {
        if (begin_ == end_) return false;
        *line = std::string_view(base + begin_, end_ - begin_);
        begin_ = end_;
        return true;
      }
      Refill();
    }
  }

 private:
  /// Moves the unfinished line to the front (or grows the buffer when it
  /// already fills it) and appends the next block of the stream.
  void Refill() {
    const size_t carried = end_ - begin_;
    if (begin_ > 0) {
      std::memmove(buffer_.data(), buffer_.data() + begin_, carried);
    } else if (carried == buffer_.size()) {
      buffer_.resize(2 * buffer_.size());
    }
    begin_ = 0;
    scanned_ = end_ = carried;
    in_.read(buffer_.data() + end_,
             static_cast<std::streamsize>(buffer_.size() - end_));
    end_ += static_cast<size_t>(in_.gcount());
    if (!in_) at_end_ = true;
  }

  std::istream& in_;
  std::vector<char> buffer_;
  size_t begin_ = 0;    ///< First byte of the current, unfinished line.
  size_t scanned_ = 0;  ///< [begin_, scanned_) holds no '\n'.
  size_t end_ = 0;      ///< One past the last byte read.
  bool at_end_ = false;
};

/// Strips a UTF-8 byte-order mark, which some spreadsheet exports prepend;
/// left in place it would corrupt the first header name.
std::string_view StripUtf8Bom(std::string_view line) {
  if (StartsWith(line, "\xEF\xBB\xBF")) line.remove_prefix(3);
  return line;
}

/// Splits one record into `fields`, with exactly ParseCsvRecord's fields and
/// failures. A line without a quote is cut at each delimiter in place
/// (dropping a final '\r' as ParseCsvRecord does); a quoted line goes
/// through ParseCsvRecord into `unquoted`, which `fields` then views.
Status SplitRecord(std::string_view line, const CsvOptions& options,
                   std::vector<std::string>* unquoted,
                   std::vector<std::string_view>* fields) {
  fields->clear();
  if (line.find('"') != std::string_view::npos) {
    FAIRRANK_ASSIGN_OR_RETURN(
        *unquoted,
        ParseCsvRecord(line, options.delimiter, options.max_field_bytes));
    fields->assign(unquoted->begin(), unquoted->end());
    return Status::OK();
  }
  if (!line.empty() && line.back() == '\r' && options.delimiter != '\r') {
    line.remove_suffix(1);
  }
  while (true) {
    const size_t at = line.find(options.delimiter);
    const std::string_view field = line.substr(0, at);
    if (options.max_field_bytes != 0 &&
        field.size() > options.max_field_bytes) {
      return FieldTooLong(options.max_field_bytes);
    }
    fields->push_back(field);
    if (at == std::string_view::npos) return Status::OK();
    line.remove_prefix(at + 1);
  }
}

}  // namespace

StatusOr<Table> ReadCsv(std::istream& in, const Schema& schema,
                        const CsvOptions& options) {
  Table table(schema);
  const size_t num_attributes = schema.num_attributes();
  LineReader reader(in);
  std::string_view line;
  size_t line_number = 0;
  // Reused for every record: views into the reader's buffer (or into
  // `unquoted` for a quoted line) and the row's converted values.
  std::vector<std::string_view> fields;
  std::vector<std::string> unquoted;
  std::vector<Cell> row(num_attributes);

  // column_of_attr[i] = CSV column index feeding schema attribute i.
  std::vector<size_t> column_of_attr(num_attributes);
  // Expected field count of every data row (ragged-row check): the header's
  // width, or the first data row's width when there is no header.
  size_t expected_fields = 0;
  bool width_known = false;

  if (options.has_header) {
    if (!reader.Next(&line)) {
      return Status::InvalidArgument("CSV stream empty: missing header");
    }
    ++line_number;
    FAIRRANK_RETURN_NOT_OK(
        SplitRecord(StripUtf8Bom(line), options, &unquoted, &fields));
    expected_fields = fields.size();
    width_known = true;
    for (size_t a = 0; a < num_attributes; ++a) {
      const std::string& want = schema.attribute(a).name();
      bool found = false;
      for (size_t c = 0; c < fields.size(); ++c) {
        if (Trim(fields[c]) == want) {
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
    for (size_t a = 0; a < num_attributes; ++a) column_of_attr[a] = a;
  }
  // Fields a row needs so that every attribute's column exists.
  size_t needed_fields = 0;
  for (size_t c : column_of_attr) needed_fields = std::max(needed_fields, c + 1);

  bool first_data_line = true;
  while (reader.Next(&line)) {
    ++line_number;
    if (options.skip_blank_lines && Trim(line).empty()) continue;
    if (first_data_line) {
      if (!options.has_header) line = StripUtf8Bom(line);
      first_data_line = false;
    }
    FAIRRANK_RETURN_NOT_OK(SplitRecord(line, options, &unquoted, &fields));
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
    if (fields.size() < needed_fields) {
      for (size_t a = 0; a < num_attributes; ++a) {
        const size_t c = column_of_attr[a];
        if (c >= fields.size()) {
          return Status::InvalidArgument(
              "line " + std::to_string(line_number) + ": only " +
              std::to_string(fields.size()) + " fields, need column " +
              std::to_string(c + 1) + " for attribute '" +
              schema.attribute(a).name() + "'");
        }
      }
    }
    for (size_t a = 0; a < num_attributes; ++a) {
      Status converted = ConvertTextCell(Trim(fields[column_of_attr[a]]),
                                         schema.attribute(a), &row[a]);
      if (!converted.ok()) {
        return Status(converted.code(), "line " + std::to_string(line_number) +
                                            ": " + converted.message());
      }
    }
    table.AppendConverted(row);
  }
  return table;
}

StatusOr<Table> ReadCsvFile(const std::string& path, const Schema& schema,
                            const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  return ReadCsv(in, schema, options);
}

Status WriteCsv(std::ostream& out, const Table& table,
                const CsvOptions& options) {
  const Schema& schema = table.schema();
  const size_t num_attributes = schema.num_attributes();
  const char delimiter = options.delimiter;
  // Each category label is escaped once, not once per cell.
  std::vector<std::vector<std::string>> labels(num_attributes);
  for (size_t a = 0; a < num_attributes; ++a) {
    for (const std::string& label : schema.attribute(a).categories()) {
      labels[a].push_back(CsvEscape(label, delimiter));
    }
  }
  std::string buffer;
  buffer.reserve(kBlockBytes + 4096);
  // A number needs quoting only under a delimiter such as '.' or '-'.
  auto append_escaped = [&buffer, delimiter](std::string_view field) {
    if (field.find(delimiter) == std::string_view::npos) {
      buffer.append(field);
    } else {
      buffer += CsvEscape(field, delimiter);
    }
  };
  if (options.has_header) {
    for (size_t a = 0; a < num_attributes; ++a) {
      if (a > 0) buffer.push_back(delimiter);
      buffer += CsvEscape(schema.attribute(a).name(), delimiter);
    }
    buffer.push_back('\n');
  }
  char number[64];
  for (size_t row = 0; row < table.num_rows(); ++row) {
    for (size_t a = 0; a < num_attributes; ++a) {
      if (a > 0) buffer.push_back(delimiter);
      const Column& column = table.column(a);
      switch (column.kind()) {
        case AttributeKind::kCategorical:
          buffer += labels[a][static_cast<size_t>(column.CodeAt(row))];
          break;
        case AttributeKind::kInteger: {
          const std::to_chars_result written =
              std::to_chars(number, number + sizeof(number), column.IntAt(row));
          append_escaped(std::string_view(number, written.ptr - number));
          break;
        }
        case AttributeKind::kReal: {
          // to_chars with a precision prints as printf's "%.4f" does, so the
          // bytes match FormatDouble(value, 4) (Table::CellToString). That
          // keeps at most sizeof(number) - 1 characters, so a value printing
          // wider takes FormatDouble itself.
          const double value = column.RealAt(row);
          const std::to_chars_result written =
              std::to_chars(number, number + sizeof(number) - 1, value,
                            std::chars_format::fixed, 4);
          if (written.ec == std::errc()) {
            append_escaped(std::string_view(number, written.ptr - number));
          } else {
            append_escaped(FormatDouble(value, 4));
          }
          break;
        }
      }
    }
    buffer.push_back('\n');
    if (buffer.size() >= kBlockBytes) {
      out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      buffer.clear();
    }
  }
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  if (!out) return Status::IOError("CSV write failed");
  return Status::OK();
}

Status WriteCsvFile(const std::string& path, const Table& table,
                    const CsvOptions& options) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  return WriteCsv(out, table, options);
}

}  // namespace fairrank

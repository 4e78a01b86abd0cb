#ifndef FAIRRANK_COMMON_STR_UTIL_H_
#define FAIRRANK_COMMON_STR_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace fairrank {

/// Splits `input` on `delim`. Keeps empty fields ("a,,b" -> {"a","","b"});
/// an empty input yields a single empty field, matching CSV semantics.
std::vector<std::string> Split(std::string_view input, char delim);

/// Joins `parts` with `delim` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view delim);

/// RFC-4180 CSV field escaping: a field containing `delimiter`, a double
/// quote, or a line break is wrapped in double quotes with embedded quotes
/// doubled; any other field passes through unchanged. Every emitted CSV
/// field flows through this — unescaped algorithm/function/attribute names
/// or category labels corrupt rows.
std::string CsvEscape(std::string_view field, char delimiter = ',');

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Lower-cases ASCII characters.
std::string ToLower(std::string_view s);

/// Formats a double with `precision` digits after the decimal point.
std::string FormatDouble(double value, int precision);

/// Parses a double; returns false on malformed or trailing garbage.
bool ParseDouble(std::string_view s, double* out);

/// Parses a signed 64-bit integer; returns false on malformed input.
bool ParseInt64(std::string_view s, int64_t* out);

}  // namespace fairrank

#endif  // FAIRRANK_COMMON_STR_UTIL_H_

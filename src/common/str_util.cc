#include "common/str_util.h"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace fairrank {

std::vector<std::string> Split(std::string_view input, char delim) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delim, start);
    if (pos == std::string_view::npos) {
      fields.emplace_back(input.substr(start));
      break;
    }
    fields.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return fields;
}

std::string Join(const std::vector<std::string>& parts, std::string_view delim) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(delim);
    out.append(parts[i]);
  }
  return out;
}

std::string CsvEscape(std::string_view field, char delimiter) {
  const char specials[] = {delimiter, '"', '\n', '\r'};
  if (field.find_first_of(std::string_view(specials, sizeof(specials))) ==
      std::string_view::npos) {
    return std::string(field);
  }
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

namespace {

/// The "C" locale's isspace: ' ', '\t', '\n', '\v', '\f', '\r'. Inline, so
/// trimming a CSV field costs no call into the C library.
bool IsAsciiSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

std::string_view Trim(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() && IsAsciiSpace(s[begin])) ++begin;
  size_t end = s.size();
  while (end > begin && IsAsciiSpace(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string FormatDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

bool ParseDouble(std::string_view s, double* out) {
  s = Trim(s);
  if (s.empty()) return false;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto result = std::from_chars(begin, end, *out);
  return result.ec == std::errc() && result.ptr == end;
}

bool ParseInt64(std::string_view s, int64_t* out) {
  s = Trim(s);
  if (s.empty()) return false;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto result = std::from_chars(begin, end, *out);
  return result.ec == std::errc() && result.ptr == end;
}

}  // namespace fairrank

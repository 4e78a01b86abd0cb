#include "common/str_util.h"

#include <gtest/gtest.h>

namespace fairrank {
namespace {

TEST(SplitTest, BasicFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTest, EmptyInputYieldsOneEmptyField) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(SplitTest, NoDelimiter) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(JoinTest, RoundTripsWithSplit) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(JoinTest, EmptyAndSingle) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("\t\nhi\r "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(TrimTest, TrimsExactlyTheAsciiSpaces) {
  EXPECT_EQ(Trim("\v\f x y\t\r\n"), "x y");
  // Bytes outside ASCII are never whitespace, whatever the locale.
  EXPECT_EQ(Trim("\xA0x\xA0"), "\xA0x\xA0");
  EXPECT_EQ(Trim(std::string_view("\0x\0", 3)), std::string_view("\0x\0", 3));
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_TRUE(StartsWith("foo", ""));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_FALSE(StartsWith("barfoo", "foo"));
}

TEST(ToLowerTest, AsciiOnly) {
  EXPECT_EQ(ToLower("AbC-123"), "abc-123");
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(FormatDouble(0.123456, 3), "0.123");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
  EXPECT_EQ(FormatDouble(-1.5, 2), "-1.50");
}

TEST(ParseDoubleTest, Valid) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble("  -7 ", &v));
  EXPECT_DOUBLE_EQ(v, -7.0);
}

TEST(ParseDoubleTest, Invalid) {
  double v = 0.0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
}

TEST(ParseInt64Test, Valid) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64(" -9 ", &v));
  EXPECT_EQ(v, -9);
}

TEST(ParseInt64Test, Invalid) {
  int64_t v = 0;
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("12.5", &v));
  EXPECT_FALSE(ParseInt64("x", &v));
}


TEST(CsvEscapeTest, PassesPlainFieldsThrough) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape(""), "");
  EXPECT_EQ(CsvEscape("with space"), "with space");
  EXPECT_EQ(CsvEscape("pipe|join"), "pipe|join");
}

TEST(CsvEscapeTest, QuotesTheGivenDelimiterOnly) {
  EXPECT_EQ(CsvEscape("a;b", ';'), "\"a;b\"");
  EXPECT_EQ(CsvEscape("a,b", ';'), "a,b");
  EXPECT_EQ(CsvEscape("-1.5", '.'), "\"-1.5\"");
  EXPECT_EQ(CsvEscape("say \"hi\"", ';'), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscape("line\nbreak", '\t'), "\"line\nbreak\"");
}

TEST(CsvEscapeTest, QuotesRfc4180Metacharacters) {
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(CsvEscape("cr\rhere"), "\"cr\rhere\"");
  EXPECT_EQ(CsvEscape("\""), "\"\"\"\"");
}

}  // namespace
}  // namespace fairrank

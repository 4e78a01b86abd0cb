#include "data/csv.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>

#include <gtest/gtest.h>

#include "common/str_util.h"
#include "csv_oracle.h"
#include "marketplace/generator.h"
#include "marketplace/worker.h"

namespace fairrank {
namespace {

Schema MakeTestSchema() {
  Schema schema;
  EXPECT_TRUE(schema
                  .AddAttribute(AttributeSpec::Categorical(
                      "Gender", AttributeRole::kProtected, {"Male", "Female"}))
                  .ok());
  EXPECT_TRUE(schema
                  .AddAttribute(AttributeSpec::Integer(
                      "Age", AttributeRole::kProtected, 18, 80, 5))
                  .ok());
  EXPECT_TRUE(schema
                  .AddAttribute(AttributeSpec::Real(
                      "Rating", AttributeRole::kObserved, 0.0, 5.0, 10))
                  .ok());
  return schema;
}

TEST(ParseCsvRecordTest, SimpleFields) {
  auto fields = ParseCsvRecord("a,b,c", ',');
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(ParseCsvRecordTest, QuotedFieldWithDelimiter) {
  auto fields = ParseCsvRecord("\"a,b\",c", ',');
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a,b", "c"}));
}

TEST(ParseCsvRecordTest, EscapedQuotes) {
  auto fields = ParseCsvRecord("\"say \"\"hi\"\"\",x", ',');
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ((*fields)[0], "say \"hi\"");
}

TEST(ParseCsvRecordTest, EmptyFields) {
  auto fields = ParseCsvRecord(",,", ',');
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields->size(), 3u);
}

TEST(ParseCsvRecordTest, TrailingCarriageReturn) {
  auto fields = ParseCsvRecord("a,b\r", ',');
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "b"}));
}

TEST(ParseCsvRecordTest, UnterminatedQuoteFails) {
  EXPECT_FALSE(ParseCsvRecord("\"abc", ',').ok());
}

TEST(ParseCsvRecordTest, QuoteMidFieldFails) {
  EXPECT_FALSE(ParseCsvRecord("ab\"c\",d", ',').ok());
}

TEST(ReadCsvTest, HeaderMatchingByName) {
  std::istringstream in(
      "Rating,Gender,Age\n"
      "4.5,Male,30\n"
      "2.0,Female,55\n");
  auto table = ReadCsv(in, MakeTestSchema());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->CellToString(0, 0), "Male");
  EXPECT_EQ(table->column(1).IntAt(1), 55);
  EXPECT_DOUBLE_EQ(table->column(2).RealAt(0), 4.5);
}

TEST(ReadCsvTest, ExtraColumnsIgnored) {
  std::istringstream in(
      "Gender,Nick,Age,Rating\n"
      "Male,zed,30,4.5\n");
  auto table = ReadCsv(in, MakeTestSchema());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 1u);
}

TEST(ReadCsvTest, MissingColumnFails) {
  std::istringstream in("Gender,Age\nMale,30\n");
  auto table = ReadCsv(in, MakeTestSchema());
  EXPECT_EQ(table.status().code(), StatusCode::kNotFound);
}

TEST(ReadCsvTest, EmptyStreamFails) {
  std::istringstream in("");
  EXPECT_EQ(ReadCsv(in, MakeTestSchema()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ReadCsvTest, BlankLinesSkipped) {
  std::istringstream in(
      "Gender,Age,Rating\n"
      "\n"
      "Male,30,4.5\n"
      "   \n");
  auto table = ReadCsv(in, MakeTestSchema());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 1u);
}

TEST(ReadCsvTest, BadCellReportsLineNumber) {
  std::istringstream in(
      "Gender,Age,Rating\n"
      "Male,30,4.5\n"
      "Male,notanumber,1.0\n");
  auto table = ReadCsv(in, MakeTestSchema());
  ASSERT_FALSE(table.ok());
  EXPECT_NE(table.status().message().find("line 3"), std::string::npos);
}

TEST(ReadCsvTest, ShortRowFails) {
  std::istringstream in(
      "Gender,Age,Rating\n"
      "Male,30\n");
  EXPECT_FALSE(ReadCsv(in, MakeTestSchema()).ok());
}

TEST(ReadCsvTest, NoHeaderPositional) {
  std::istringstream in("Male,30,4.5\n");
  CsvOptions options;
  options.has_header = false;
  auto table = ReadCsv(in, MakeTestSchema(), options);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 1u);
  EXPECT_EQ(table->CellToString(0, 0), "Male");
}

TEST(ReadCsvTest, CustomDelimiter) {
  std::istringstream in(
      "Gender;Age;Rating\n"
      "Female;44;3.5\n");
  CsvOptions options;
  options.delimiter = ';';
  auto table = ReadCsv(in, MakeTestSchema(), options);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->CellToString(0, 0), "Female");
}

TEST(ParseCsvRecordTest, MaxFieldBytesEnforced) {
  EXPECT_TRUE(ParseCsvRecord("abcde,xyz", ',', 5).ok());
  EXPECT_EQ(ParseCsvRecord("abcdef,xyz", ',', 5).status().code(),
            StatusCode::kResourceExhausted);
  // A quoted field swallowing the delimiter counts its full contents.
  EXPECT_EQ(ParseCsvRecord("\"abc,def\",x", ',', 5).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(ReadCsvTest, Utf8BomStripped) {
  std::istringstream in(
      "\xEF\xBB\xBFGender,Age,Rating\n"
      "Male,30,4.5\n");
  auto table = ReadCsv(in, MakeTestSchema());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 1u);
  EXPECT_EQ(table->CellToString(0, 0), "Male");
}

TEST(ReadCsvTest, Utf8BomStrippedWithoutHeader) {
  std::istringstream in("\xEF\xBB\xBFMale,30,4.5\n");
  CsvOptions options;
  options.has_header = false;
  auto table = ReadCsv(in, MakeTestSchema(), options);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->CellToString(0, 0), "Male");
}

TEST(ReadCsvTest, RaggedRowFailsWithLineNumber) {
  // Row 3 has an extra field; silent acceptance would mean misaligned
  // columns whenever a field contains an unquoted delimiter.
  std::istringstream in(
      "Gender,Age,Rating\n"
      "Male,30,4.5\n"
      "Female,55,2.0,stray\n");
  auto table = ReadCsv(in, MakeTestSchema());
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(table.status().message().find("line 3"), std::string::npos);
  EXPECT_NE(table.status().message().find("ragged"), std::string::npos);
}

TEST(ReadCsvTest, RaggedRowCheckedAgainstFirstRowWhenHeaderless) {
  std::istringstream in(
      "Male,30,4.5\n"
      "Female,55,2.0,stray\n");
  CsvOptions options;
  options.has_header = false;
  auto table = ReadCsv(in, MakeTestSchema(), options);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(table.status().message().find("line 2"), std::string::npos);
}

TEST(ReadCsvTest, MaxRowsEnforced) {
  std::istringstream in(
      "Gender,Age,Rating\n"
      "Male,30,4.5\n"
      "Female,55,2.0\n"
      "Male,40,3.0\n");
  CsvOptions options;
  options.max_rows = 2;
  auto table = ReadCsv(in, MakeTestSchema(), options);
  EXPECT_EQ(table.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(table.status().message().find("max_rows"), std::string::npos);
}

TEST(ReadCsvTest, MaxRowsNotTrippedAtTheLimit) {
  std::istringstream in(
      "Gender,Age,Rating\n"
      "Male,30,4.5\n"
      "Female,55,2.0\n");
  CsvOptions options;
  options.max_rows = 2;
  auto table = ReadCsv(in, MakeTestSchema(), options);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 2u);
}

TEST(ReadCsvTest, MaxFieldBytesAppliesToRows) {
  std::istringstream in(
      "Gender,Age,Rating\n"
      "Male,30,4.5\n"
      "Male,300000000,4.5\n");
  CsvOptions options;
  options.max_field_bytes = 6;
  auto table = ReadCsv(in, MakeTestSchema(), options);
  EXPECT_EQ(table.status().code(), StatusCode::kResourceExhausted);
}

TEST(WriteCsvTest, RoundTrip) {
  Table table(MakeTestSchema());
  ASSERT_TRUE(table.AppendRow({std::string("Male"), int64_t{30}, 4.5}).ok());
  ASSERT_TRUE(table.AppendRow({std::string("Female"), int64_t{55}, 2.0}).ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(out, table).ok());

  std::istringstream in(out.str());
  auto round = ReadCsv(in, MakeTestSchema());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->num_rows(), 2u);
  EXPECT_EQ(round->CellToString(1, 0), "Female");
  EXPECT_EQ(round->column(1).IntAt(0), 30);
}

TEST(WriteCsvTest, QuotesFieldsWithDelimiters) {
  Schema schema;
  ASSERT_TRUE(schema
                  .AddAttribute(AttributeSpec::Categorical(
                      "City", AttributeRole::kOther, {"Paris, France"}))
                  .ok());
  Table table(schema);
  ASSERT_TRUE(table.AppendRow({std::string("Paris, France")}).ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(out, table).ok());
  EXPECT_NE(out.str().find("\"Paris, France\""), std::string::npos);
}

TEST(ReadCsvFileTest, MissingFileFails) {
  EXPECT_EQ(
      ReadCsvFile("/nonexistent/path.csv", MakeTestSchema()).status().code(),
      StatusCode::kIOError);
}

TEST(CsvFileTest, FileRoundTrip) {
  Table table(MakeTestSchema());
  ASSERT_TRUE(table.AppendRow({std::string("Male"), int64_t{25}, 1.5}).ok());
  std::string path = ::testing::TempDir() + "/fairrank_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(path, table).ok());
  auto round = ReadCsvFile(path, MakeTestSchema());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->num_rows(), 1u);
}

// ---------------------------------------------------------------------------
// Equivalence with the row-at-a-time oracle (tests/csv_oracle.h): on every
// input the streaming reader returns the same table, cell for cell with reals
// bit-equal, or a Status with the same code and message.

/// Gender, a City whose labels need quoting, Age and Rating: every kind of
/// column, and labels that only survive RFC-4180 quoting.
Schema MakeOracleSchema() {
  Schema schema = MakeTestSchema();
  EXPECT_TRUE(schema
                  .AddAttribute(AttributeSpec::Categorical(
                      "City", AttributeRole::kProtected,
                      {"Lyon", "Paris, France", "Semi;colon", "Say \"hi\""}))
                  .ok());
  return schema;
}

/// Reads `text` with both readers and reports any difference.
std::string CompareWithOracle(const std::string& text, const Schema& schema,
                              const CsvOptions& options) {
  std::istringstream streamed(text);
  std::istringstream by_line(text);
  return csv_oracle::OutcomeDifference(
      ReadCsv(streamed, schema, options),
      csv_oracle::ReadCsvByLine(by_line, schema, options));
}

/// Seeded generator of hostile-but-plausible CSV text for MakeOracleSchema.
/// Most rows are valid so that many inputs parse; each row has a small
/// chance of every failure the reader reports.
class CsvCaseGenerator {
 public:
  explicit CsvCaseGenerator(uint64_t seed) : rng_(seed) {}

  /// Uniform in [0, n).
  size_t Below(size_t n) { return static_cast<size_t>(rng_() % n); }
  bool OneIn(size_t n) { return Below(n) == 0; }

  CsvOptions Options() {
    CsvOptions options;
    options.delimiter = OneIn(2) ? ',' : ';';
    options.has_header = !OneIn(3);
    options.skip_blank_lines = !OneIn(4);
    options.max_rows = OneIn(5) ? 1 + Below(20) : 0;
    options.max_field_bytes = OneIn(5) ? 4 + Below(12) : 0;
    return options;
  }

  std::string Text(const CsvOptions& options, size_t max_rows) {
    const char d = options.delimiter;
    const std::string eol = OneIn(3) ? "\r\n" : "\n";
    // Header column order; an extra ignored column in some files.
    std::vector<std::string> columns = {"Gender", "Age", "Rating", "City"};
    if (options.has_header) {
      for (size_t i = columns.size(); i > 1; --i) {
        std::swap(columns[i - 1], columns[Below(i)]);
      }
      if (OneIn(3)) columns.insert(columns.begin() + Below(5), "Notes");
      if (OneIn(30)) columns.erase(columns.begin() + Below(columns.size()));
    }
    std::string text;
    if (OneIn(6)) text += "\xEF\xBB\xBF";
    if (options.has_header) {
      for (size_t c = 0; c < columns.size(); ++c) {
        if (c > 0) text.push_back(d);
        text += Pad(columns[c]);
      }
      text += eol;
    }
    const size_t rows = Below(max_rows + 1);
    for (size_t r = 0; r < rows; ++r) {
      if (OneIn(12)) text += Blank() + eol;
      for (size_t c = 0; c < columns.size(); ++c) {
        if (c > 0) text.push_back(d);
        text += Field(columns[c], d);
      }
      if (OneIn(150)) text += std::string(1, d) + "stray";
      if (OneIn(150) && text.back() != d) text.pop_back();
      if (OneIn(300)) text += "\"open";
      text += OneIn(40) ? (eol == "\n" ? "\r\n" : "\n") : eol;
    }
    if (OneIn(4) && !text.empty()) text.pop_back();  // No final '\n'.
    if (OneIn(8)) text += Blank();
    return text;
  }

 private:
  std::string Pad(const std::string& s) {
    static const char* const kPads[] = {"", "", "", " ", "  ", "\t"};
    return std::string(kPads[Below(6)]) + s + kPads[Below(6)];
  }

  std::string Blank() {
    static const char* const kBlanks[] = {"", " ", "\t ", "\r", "  \r"};
    return kBlanks[Below(5)];
  }

  std::string Field(const std::string& column, char d) {
    if (column == "Gender") {
      if (OneIn(200)) return "Robot";
      if (OneIn(10)) return "\"Female\"";
      return Pad(OneIn(2) ? "Male" : "Female");
    }
    if (column == "City") {
      if (OneIn(200)) return "Paris";
      if (OneIn(200)) return "Par\"is";
      static const char* const kCities[] = {"Lyon", "Paris, France",
                                            "Semi;colon", "Say \"hi\""};
      const std::string city = kCities[Below(4)];
      const std::string escaped = CsvEscape(city, d);
      if (escaped != city) return escaped;
      return OneIn(8) ? "\"" + city + "\"" : Pad(city);
    }
    if (column == "Age") {
      if (OneIn(200)) return "thirty";
      if (OneIn(300)) return "99999999999999999999";
      if (OneIn(300)) return "";
      return Pad(std::to_string(static_cast<int64_t>(Below(120)) - 10));
    }
    if (column == "Rating") {
      static const char* const kOdd[] = {"inf", "-inf", "nan", "NaN",
                                         "1e400", "4.5x", "", "+1.0"};
      if (OneIn(100)) return kOdd[Below(8)];
      char buf[32];
      static const char* const kFormats[] = {"%.1f", "%.4f", "%g", "%.17g",
                                             "%e"};
      std::snprintf(buf, sizeof(buf), kFormats[Below(5)],
                    (static_cast<double>(Below(1u << 20)) / (1u << 18)) - 1.0);
      return Pad(buf);
    }
    // Notes: free text, sometimes long enough to trip max_field_bytes.
    return std::string(Below(OneIn(10) ? 40 : 6), 'n');
  }

  std::mt19937_64 rng_;
};

TEST(ReadCsvOracleTest, RandomizedInputsMatchTheRowReader) {
  const Schema schema = MakeOracleSchema();
  size_t parsed = 0;
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    CsvCaseGenerator gen(seed);
    const CsvOptions options = gen.Options();
    const std::string text = gen.Text(options, 30);
    const std::string difference = CompareWithOracle(text, schema, options);
    ASSERT_EQ(difference, "") << "seed " << seed << ", input:\n" << text;
    std::istringstream in(text);
    parsed += ReadCsv(in, schema, options).ok() ? 1 : 0;
  }
  // Both outcomes must be well represented, or the comparison is vacuous.
  EXPECT_GT(parsed, 200u);
  EXPECT_LT(parsed, 800u);
}

TEST(ReadCsvOracleTest, EdgeInputsMatchTheRowReader) {
  const Schema schema = MakeOracleSchema();
  const std::vector<std::string> texts = {
      "",
      "\n",
      "\r\n",
      "\xEF\xBB\xBF",
      "\xEF\xBB\xBF\n",
      "Gender,Age,Rating,City",
      "Gender,Age,Rating,City\n",
      "Gender,Age,Rating,City\nMale,30,4.5,Lyon",
      "Gender,Age,Rating,City\r\nMale,30,4.5,Lyon\r\n",
      "Gender,Age,Rating,City\r\nMale,30,4.5,Lyon\r",
      "Gender,Age,Rating,City\n\n\n   \n\t\nMale,30,4.5,Lyon\n\n",
      "Gender,Age,Rating,City\nMale, 30 ,\t4.5\t, \"Paris, France\"\n",
      "Gender,Age,Rating,City\nMale,30,inf,Lyon\n",
      "Gender,Age,Rating,City\nMale,30,nan,Lyon\n",
      "Gender,Age,Rating,City\nMale,30,1e999,Lyon\n",
      "Gender,Age,Rating,City\nMale,3.0,1,Lyon\n",
      "Gender,Age,Rating,City\nMale,30,4.5,Lyon,\n",
      "Gender,Age,Rating,City\nMale,30,4.5\n",
      "Gender,Age,Rating,City\nMale,30,4.5,\"Lyon\n",
      "Gender,Age,Rating,City\nMale,30,4.5,Ly\"on\"\n",
      "Gender,Age,Rating,City\nMale,30,4.5,\"Lyon\"x\n",
      "Gender,Age,\"Rating\",City\n\"Male\",30,4.5,\"Say \"\"hi\"\"\"\n",
      "Gender,Age,Rating\nMale,30,4.5\n",
      "\xEF\xBB\xBFGender,Age,Rating,City\nMale,30,4.5,Lyon\n",
      "Gender,Age,Rating,City\n\xEF\xBB\xBFMale,30,4.5,Lyon\n",
      "Gender,Age,Rating,City\nMale,30,4.5,Lyon\nFemale,abc,1,Lyon\n",
      "Gender\r,Age,Rating,City\nMale\r,30,4.5,Lyon\n",
      "Gender,Age,Rating,City\nMale,30\r,4.5,Lyon\n",
  };
  for (const std::string& text : texts) {
    for (int config = 0; config < 32; ++config) {
      CsvOptions options;
      options.has_header = (config & 1) == 0;
      options.skip_blank_lines = (config & 2) == 0;
      options.max_rows = (config & 4) != 0 ? 1 : 0;
      options.max_field_bytes = (config & 8) != 0 ? 5 : 0;
      std::string input = text;
      if ((config & 16) != 0) {
        for (char& c : input) {
          if (c == ',') c = ';';
        }
        options.delimiter = ';';
      }
      EXPECT_EQ(CompareWithOracle(input, schema, options), "")
          << "config " << config << ", input:\n" << input;
    }
  }
}

/// A worker CSV of `rows` rows, with an ignored Notes column, after a
/// whitespace-only line of `padding` bytes that places the reader's 1 MiB
/// block boundaries in a row. Every 1000th line is blank, every 7th city
/// quoted.
std::string WorkerCsv(size_t padding, size_t rows, const std::string& eol) {
  std::string text = "Gender,Age,Rating,City,Notes" + eol +
                     std::string(padding, ' ') + eol;
  char line[96];
  for (size_t r = 0; r < rows; ++r) {
    if (r % 1000 == 999) text += eol;
    std::snprintf(line, sizeof(line), "%s,%zu,%.4f,%s,n%zu",
                  r % 3 == 0 ? "Female" : "Male", 18 + r % 60,
                  static_cast<double>(r % 5000) / 1000.0,
                  r % 7 == 0 ? "\"Paris, France\"" : "Lyon", r);
    text += line;
    text += eol;
  }
  return text;
}

TEST(ReadCsvOracleTest, MultiBlockInputMatches) {
  const Schema schema = MakeOracleSchema();
  for (const char* eol : {"\r\n", "\n"}) {
    const std::string text = WorkerCsv(5, 75'000, eol);
    ASSERT_GT(text.size(), size_t{2} << 20);
    EXPECT_EQ(CompareWithOracle(text, schema, CsvOptions()), "");
  }
}

TEST(ReadCsvOracleTest, EveryBoundaryPositionInARowMatches) {
  // A blank line of just under 1 MiB puts the first block boundary among
  // the next few rows; 40 consecutive paddings move it across every byte of
  // a row, the '\r' and '\n' included.
  const Schema schema = MakeOracleSchema();
  const size_t near_boundary = (size_t{1} << 20) - 100;
  for (size_t shift = 0; shift < 40; ++shift) {
    for (const char* eol : {"\r\n", "\n"}) {
      const std::string text = WorkerCsv(near_boundary + shift, 12, eol);
      EXPECT_EQ(CompareWithOracle(text, schema, CsvOptions()), "")
          << "shift " << shift;
    }
  }
}

TEST(ReadCsvOracleTest, LineLongerThanABlockMatches) {
  const Schema schema = MakeOracleSchema();
  // An ignored column holding a 3 MiB field: on a quoted row in the middle
  // and on the last, unterminated line; then in the header.
  const std::string huge(3u << 20, 'n');
  std::string text = "Gender,Age,Rating,City,Notes\n";
  text += "Male,30,4.5,Lyon,short\n";
  text += "Female,31,2.5,\"Paris, France\"," + huge + "\n";
  text += "Male,32,1.5,Lyon,short\n";
  text += "Male,33,0.5,Lyon," + huge;
  std::istringstream in(text);
  StatusOr<Table> table = ReadCsv(in, schema);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 4u);
  EXPECT_EQ(CompareWithOracle(text, schema, CsvOptions()), "");
  EXPECT_EQ(CompareWithOracle("Gender,Age,Rating,City," + huge +
                                  "\nMale,30,4.5,Lyon,x\n",
                              schema, CsvOptions()),
            "");
  // The cap fires on the long field, with the same message.
  CsvOptions capped;
  capped.max_field_bytes = 1 << 20;
  EXPECT_EQ(CompareWithOracle(text, schema, capped), "");
}

TEST(ReadCsvOracleTest, LateFailureInALargeInputReportsTheSameLine) {
  const Schema schema = MakeOracleSchema();
  // Header, padding line, 40,000 rows and 40 blank lines, then the bad row.
  std::string text = WorkerCsv(5, 40'000, "\n");
  text += "Male,30,4.5,Lyon,x,ragged\n";
  std::istringstream in(text);
  StatusOr<Table> table = ReadCsv(in, schema);
  ASSERT_FALSE(table.ok());
  EXPECT_NE(table.status().message().find("line 40043:"), std::string::npos)
      << table.status().ToString();
  EXPECT_EQ(CompareWithOracle(text, schema, CsvOptions()), "");
  CsvOptions limited;
  limited.max_rows = 30'000;
  EXPECT_EQ(CompareWithOracle(text, schema, limited), "");
}

TEST(ReadCsvOracleTest, PaperWorkersRoundTripThroughBothReaders) {
  GeneratorOptions gen;
  gen.num_workers = 7300;
  gen.seed = 11;
  StatusOr<Table> workers = GenerateWorkers(gen);
  ASSERT_TRUE(workers.ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(out, *workers).ok());
  std::istringstream in(out.str());
  StatusOr<Table> read = ReadCsv(in, workers->schema());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->num_rows(), 7300u);
  EXPECT_EQ(CompareWithOracle(out.str(), workers->schema(), CsvOptions()), "");
}

// ---------------------------------------------------------------------------
// The buffered writer against the cell-at-a-time oracle: the same bytes.

std::string WriteBuffered(const Table& table, const CsvOptions& options) {
  std::ostringstream out;
  EXPECT_TRUE(WriteCsv(out, table, options).ok());
  return out.str();
}

std::string WriteByCell(const Table& table, const CsvOptions& options) {
  std::ostringstream out;
  EXPECT_TRUE(csv_oracle::WriteCsvByCell(out, table, options).ok());
  return out.str();
}

TEST(WriteCsvOracleTest, PaperWorkersAreByteIdentical) {
  GeneratorOptions gen;
  gen.num_workers = 7300;
  gen.seed = 11;
  StatusOr<Table> workers = GenerateWorkers(gen);
  ASSERT_TRUE(workers.ok());
  for (char delimiter : {',', ';', '\t'}) {
    for (bool header : {true, false}) {
      CsvOptions options;
      options.delimiter = delimiter;
      options.has_header = header;
      EXPECT_EQ(WriteBuffered(*workers, options),
                WriteByCell(*workers, options))
          << "delimiter '" << delimiter << "', header " << header;
    }
  }
}

TEST(WriteCsvOracleTest, QuotingAndNumberFormatsAreByteIdentical) {
  Schema schema;
  ASSERT_TRUE(schema
                  .AddAttribute(AttributeSpec::Categorical(
                      "Ci,ty;\"x\"", AttributeRole::kOther,
                      {"Paris, France", "Semi;colon", "Say \"hi\"",
                       "Line\nbreak", "CR\rhere", "Dot.ted", "Da-sh", "plain",
                       ""}))
                  .ok());
  ASSERT_TRUE(schema
                  .AddAttribute(AttributeSpec::Integer(
                      "Age", AttributeRole::kOther, -100, 100, 5))
                  .ok());
  ASSERT_TRUE(schema
                  .AddAttribute(AttributeSpec::Real(
                      "Rating", AttributeRole::kOther, -1.0, 1.0, 5))
                  .ok());
  Table table(schema);
  std::mt19937_64 rng(20190326);
  const std::vector<double> reals = {
      0.0, -0.0, 0.5, 0.03125, -0.03125, 0.00005, 0.00015, 1.00005,
      123456.78905, 1e-300, -1e-300, 1e15, 1e30, 1e55, 1e56, 1e60, 1e300,
      -1e300, std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::denorm_min()};
  const std::vector<int64_t> ints = {0, -1, 7, -12345,
                                     std::numeric_limits<int64_t>::min(),
                                     std::numeric_limits<int64_t>::max()};
  for (size_t r = 0; r < 3000; ++r) {
    double real = 0.0;
    if (r < reals.size()) {
      real = reals[r];
    } else if (r % 2 == 0) {
      real = static_cast<double>(static_cast<int64_t>(rng() % 4'000'000) -
                                 2'000'000) /
             4096.0;
    } else {
      // Any finite bit pattern: tiny, huge and everything between.
      do {
        const uint64_t bits = rng();
        std::memcpy(&real, &bits, sizeof(real));
      } while (!std::isfinite(real));
    }
    const int64_t integer =
        r < ints.size() ? ints[r] : static_cast<int64_t>(rng() % 2001) - 1000;
    ASSERT_TRUE(table
                    .AppendRow({static_cast<int64_t>(r % 9), integer, real})
                    .ok());
  }
  for (char delimiter : {',', ';', '.', '-', '1', 'e', '"', ' '}) {
    for (bool header : {true, false}) {
      CsvOptions options;
      options.delimiter = delimiter;
      options.has_header = header;
      EXPECT_EQ(WriteBuffered(table, options), WriteByCell(table, options))
          << "delimiter '" << delimiter << "', header " << header;
    }
  }
}

}  // namespace
}  // namespace fairrank

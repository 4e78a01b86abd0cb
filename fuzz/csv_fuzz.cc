// Fuzz target for src/data/csv.cc — the untrusted-file ingest path.
//
// Input layout: [options config: 1 byte][CSV text...]. The config byte
// toggles delimiter, header mode, blank-line handling and the max_rows /
// max_field_bytes hardening caps, so the BOM-stripping, ragged-row and
// limit-enforcement paths all stay reachable from one corpus.
//
// Invariants:
//   - ParseCsvRecord is deterministic and errors only with InvalidArgument
//     (syntax) or ResourceExhausted (field cap); on success every field
//     respects max_field_bytes and the record is non-empty.
//   - Escape/parse round-trip: CsvEscape-ing parsed fields and re-parsing
//     reproduces them exactly (',' delimiter — CsvEscape's contract).
//   - ReadCsv against the paper worker schema is deterministic, errors
//     within the documented vocabulary, and on success honors max_rows.
//   - ReadCsv agrees with the row-at-a-time oracle (tests/csv_oracle.h):
//     the same table, reals bit-equal, or the same Status code and message.

#include "fuzz/fuzz_targets.h"

#include <sstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/str_util.h"
#include "data/csv.h"
#include "data/table.h"
#include "marketplace/worker.h"
#include "tests/csv_oracle.h"

namespace fairrank::fuzz {

void FuzzCsv(const uint8_t* data, size_t size) {
  FuzzInput in(data, size);
  const uint8_t config = in.TakeByte();
  CsvOptions options;
  options.delimiter = (config & 1) != 0 ? ';' : ',';
  options.has_header = (config & 2) != 0;
  options.skip_blank_lines = (config & 4) != 0;
  options.max_rows = (config & 8) != 0 ? 16 : 0;
  options.max_field_bytes = (config & 16) != 0 ? 32 : 0;
  const std::string text = in.TakeRest();

  // Single-record parse over the first line.
  const std::string line = text.substr(0, text.find('\n'));
  StatusOr<std::vector<std::string>> record =
      ParseCsvRecord(line, options.delimiter, options.max_field_bytes);
  StatusOr<std::vector<std::string>> record_again =
      ParseCsvRecord(line, options.delimiter, options.max_field_bytes);
  FUZZ_CHECK(record.ok() == record_again.ok());
  if (!record.ok()) {
    FUZZ_CHECK(record.status().code() == StatusCode::kInvalidArgument ||
               record.status().code() == StatusCode::kResourceExhausted);
  } else {
    FUZZ_CHECK(!record->empty());
    FUZZ_CHECK(*record == *record_again);
    if (options.max_field_bytes > 0) {
      for (const std::string& field : *record) {
        FUZZ_CHECK(field.size() <= options.max_field_bytes);
      }
    }
    if (options.delimiter == ',') {
      std::string joined;
      for (size_t i = 0; i < record->size(); ++i) {
        if (i > 0) joined.push_back(',');
        joined += CsvEscape((*record)[i]);
      }
      StatusOr<std::vector<std::string>> round =
          ParseCsvRecord(joined, ',', 0);
      FUZZ_CHECK(round.ok());
      FUZZ_CHECK(*round == *record);
    }
  }

  // Whole-stream read against the real ingest schema.
  StatusOr<Schema> schema = MakePaperWorkerSchema();
  FUZZ_CHECK(schema.ok());
  std::istringstream stream(text);
  StatusOr<Table> table = ReadCsv(stream, schema.value(), options);
  std::istringstream stream_again(text);
  StatusOr<Table> table_again = ReadCsv(stream_again, schema.value(), options);
  FUZZ_CHECK(table.ok() == table_again.ok());
  if (!table.ok()) {
    const StatusCode code = table.status().code();
    FUZZ_CHECK(code == StatusCode::kInvalidArgument ||
               code == StatusCode::kResourceExhausted ||
               code == StatusCode::kNotFound ||
               code == StatusCode::kOutOfRange);
    FUZZ_CHECK(code == table_again.status().code());
  } else {
    FUZZ_CHECK(table->num_rows() == table_again->num_rows());
    if (options.max_rows > 0) {
      FUZZ_CHECK(table->num_rows() <= options.max_rows);
    }
  }
  std::istringstream by_line(text);
  FUZZ_CHECK(csv_oracle::OutcomeDifference(
                 table, csv_oracle::ReadCsvByLine(by_line, schema.value(),
                                                  options)) == "");
}

}  // namespace fairrank::fuzz

#ifdef FAIRRANK_FUZZ_DRIVER
extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  fairrank::fuzz::FuzzCsv(data, size);
  return 0;
}
#endif

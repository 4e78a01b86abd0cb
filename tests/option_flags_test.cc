// Negative-path coverage for the shared CLI/HTTP option pipeline
// (fairness/option_flags.h): overflow values, empty values, repeated
// flags, and the negative-budget guard that must fire before any
// int64 -> uint64 widening can wrap a "-1" into an unlimited budget.

#include "fairness/option_flags.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/flags.h"
#include "common/status.h"

namespace fairrank {
namespace {

using Pairs = std::vector<std::pair<std::string, std::string>>;

FlagParser MustParse(const Pairs& pairs) {
  StatusOr<FlagParser> parsed = FlagParser::FromPairs(pairs);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed).value();
}

TEST(ParseExecutionLimitsTest, RejectsNegativeBudgetsBeforeWidening) {
  for (const char* flag : {"timeout-ms", "max-nodes", "max-memory-mb"}) {
    FlagParser flags = MustParse({{flag, "-1"}});
    StatusOr<ExecutionLimits> limits = ParseExecutionLimits(flags);
    ASSERT_FALSE(limits.ok()) << flag;
    EXPECT_EQ(limits.status().code(), StatusCode::kInvalidArgument) << flag;
    EXPECT_NE(limits.status().ToString().find(flag), std::string::npos)
        << "error must name the offending flag: "
        << limits.status().ToString();
  }
}

TEST(ParseExecutionLimitsTest, RejectsInt64Overflow) {
  // One past int64 max: from_chars refuses it, so it can never alias to a
  // small (or negative) budget.
  FlagParser flags = MustParse({{"max-nodes", "9223372036854775808"}});
  StatusOr<ExecutionLimits> limits = ParseExecutionLimits(flags);
  ASSERT_FALSE(limits.ok());
  EXPECT_EQ(limits.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParseExecutionLimitsTest, RejectsEmptyAndGarbageValues) {
  for (const char* value : {"", " ", "12x", "0x10", "1e3"}) {
    FlagParser flags = MustParse({{"timeout-ms", value}});
    StatusOr<ExecutionLimits> limits = ParseExecutionLimits(flags);
    ASSERT_FALSE(limits.ok()) << "value '" << value << "'";
    EXPECT_EQ(limits.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ParseExecutionLimitsTest, LastRepeatedFlagWins) {
  FlagParser flags = MustParse({{"max-nodes", "5"}, {"max-nodes", "7"}});
  StatusOr<ExecutionLimits> limits = ParseExecutionLimits(flags);
  ASSERT_TRUE(limits.ok()) << limits.status().ToString();
  EXPECT_EQ(limits->max_nodes, 7u);
}

TEST(ParseExecutionLimitsTest, RepeatedValidThenInvalidFails) {
  // Later duplicates win wholesale — including a later *invalid* value; a
  // valid earlier spelling must not mask it.
  FlagParser flags = MustParse({{"max-nodes", "5"}, {"max-nodes", "-3"}});
  StatusOr<ExecutionLimits> limits = ParseExecutionLimits(flags);
  ASSERT_FALSE(limits.ok());
  EXPECT_EQ(limits.status().code(), StatusCode::kInvalidArgument);
}

TEST(AuditOptionsFromFlagsTest, RejectsOverflowInts) {
  for (const char* flag :
       {"bins", "seed", "beam-width", "threads", "max-nodes"}) {
    FlagParser flags = MustParse({{flag, "9223372036854775808"}});
    StatusOr<AuditOptions> options = AuditOptionsFromFlags(flags);
    ASSERT_FALSE(options.ok()) << flag;
    EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument) << flag;
  }
}

TEST(AuditOptionsFromFlagsTest, RejectsEmptyNumericValues) {
  for (const char* flag : {"bins", "seed", "beam-width", "threads",
                           "timeout-ms", "max-memory-mb"}) {
    FlagParser flags = MustParse({{flag, ""}});
    StatusOr<AuditOptions> options = AuditOptionsFromFlags(flags);
    ASSERT_FALSE(options.ok()) << flag;
    EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument) << flag;
  }
}

TEST(AuditOptionsFromFlagsTest, RemovedCacheFlagsAreUnknown) {
  // Retired flags must fail validation rather than be silently accepted
  // and ignored.
  for (const char* flag : {"no-cache", "cache-mb"}) {
    FlagParser flags = MustParse({{flag, "1"}});
    Status known = ValidateKnownFlags(flags, AuditOptionFlagNames());
    ASSERT_FALSE(known.ok()) << flag;
    EXPECT_EQ(known.code(), StatusCode::kInvalidArgument) << flag;
  }
}

TEST(AuditOptionsFromFlagsTest, RepeatedFlagsLastWins) {
  FlagParser flags = MustParse({{"algorithm", "balanced"},
                                {"algorithm", "unbalanced"},
                                {"bins", "10"},
                                {"bins", "32"}});
  StatusOr<AuditOptions> options = AuditOptionsFromFlags(flags);
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->algorithm, "unbalanced");
  EXPECT_EQ(options->evaluator.num_bins, 32);
}

TEST(AuditOptionsFromFlagsTest, EmptyParameterNameFailsAtFromPairs) {
  StatusOr<FlagParser> parsed = FlagParser::FromPairs(Pairs{{"", "value"}});
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(AuditOptionsFromFlagsTest, FlagNamesCoverEveryConsumedFlag) {
  // The published name list is what ValidateKnownFlags trusts; a flag the
  // parser consumes but the list omits would be unreachable over HTTP.
  const std::vector<std::string>& names = AuditOptionFlagNames();
  for (const char* flag :
       {"algorithm", "bins", "divergence", "seed", "beam-width", "threads",
        "attributes", "timeout-ms", "max-nodes", "max-memory-mb"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), flag), names.end())
        << flag << " missing from AuditOptionFlagNames()";
  }
}

TEST(MakeFunctionFromSpecTest, RejectsMalformedSpecs) {
  for (const char* spec :
       {"", "alpha:", "alpha:nope", "f5", "f6:bad", "weights:", "weights:A",
        "weights:A=x", "unknown:1"}) {
    StatusOr<std::unique_ptr<ScoringFunction>> fn = MakeFunctionFromSpec(spec);
    EXPECT_FALSE(fn.ok()) << "spec '" << spec << "' should be rejected";
  }
}

}  // namespace
}  // namespace fairrank

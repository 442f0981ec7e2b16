// Unit tests for util/flags.h: FlagParser parse-shape edge cases and the
// strict numeric getters. The CLI's "a typo never silently runs with a
// default" contract rests on these paths.

#include "util/flags.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace tcomp {
namespace {

FlagParser Parse(const std::vector<const char*>& args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  FlagParser flags;
  Status s = flags.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(s.ok()) << s.ToString();
  return flags;
}

TEST(FlagParserTest, EqualsAndSpaceFormsAgree) {
  FlagParser a = Parse({"--epsilon=24.5"});
  FlagParser b = Parse({"--epsilon", "24.5"});
  EXPECT_EQ(a.GetDouble("epsilon", 0.0), 24.5);
  EXPECT_EQ(b.GetDouble("epsilon", 0.0), 24.5);
}

TEST(FlagParserTest, BareFlagIsBooleanTrue) {
  FlagParser flags = Parse({"--quiet"});
  EXPECT_TRUE(flags.GetBool("quiet", false));
}

TEST(FlagParserTest, FlagFollowedByFlagIsBoolean) {
  // `--timeline --quiet`: --timeline must not consume "--quiet" as its
  // value.
  FlagParser flags = Parse({"--timeline", "--quiet"});
  EXPECT_TRUE(flags.GetBool("timeline", false));
  EXPECT_TRUE(flags.GetBool("quiet", false));
}

TEST(FlagParserTest, NegativeNumberIsAValueNotAFlag) {
  // "-5" does not start with "--", so it is consumed as the value.
  FlagParser flags = Parse({"--offset", "-5"});
  EXPECT_EQ(flags.GetInt("offset", 0), -5);
}

TEST(FlagParserTest, PositionalArgumentsCollected) {
  // Note: a space-form flag greedily consumes the next non-`--` token, so
  // the `=` form is required for a flag to precede a positional.
  FlagParser flags = Parse({"input.csv", "--quiet=1", "more.csv"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.csv");
  EXPECT_EQ(flags.positional()[1], "more.csv");
}

TEST(FlagParserTest, SpaceFormFlagConsumesFollowingToken) {
  // Documented greedy consumption: `--quiet more.csv` makes "more.csv"
  // the *value* of --quiet, not a positional.
  FlagParser flags = Parse({"--quiet", "more.csv"});
  EXPECT_EQ(flags.GetString("quiet", ""), "more.csv");
  EXPECT_TRUE(flags.positional().empty());
}

TEST(FlagParserTest, BareDoubleDashIsAnError) {
  const char* argv[] = {"prog", "--"};
  FlagParser flags;
  EXPECT_FALSE(flags.Parse(2, argv).ok());
}

TEST(FlagParserTest, EmptyFlagNameIsAnError) {
  const char* argv[] = {"prog", "--=value"};
  FlagParser flags;
  EXPECT_FALSE(flags.Parse(2, argv).ok());
}

TEST(FlagParserTest, EmptyValueViaEqualsIsKept) {
  FlagParser flags = Parse({"--out="});
  EXPECT_TRUE(flags.Has("out"));
  EXPECT_EQ(flags.GetString("out", "default"), "");
}

TEST(FlagParserTest, LastOccurrenceWins) {
  FlagParser flags = Parse({"--mu=3", "--mu=7"});
  EXPECT_EQ(flags.GetInt("mu", 0), 7);
}

TEST(FlagParserTest, NamesAreSortedForUnknownFlagRejection) {
  FlagParser flags = Parse({"--zeta=1", "--alpha=2"});
  EXPECT_EQ(flags.names(), (std::vector<std::string>{"alpha", "zeta"}));
}

// ---- strict parsing -------------------------------------------------------

TEST(ParseTextTest, Int64AcceptsExactIntegers) {
  EXPECT_EQ(ParseInt64Text("42").value(), 42);
  EXPECT_EQ(ParseInt64Text("-7").value(), -7);
  EXPECT_EQ(ParseInt64Text("  19 ").value(), 19);   // surrounding space
  EXPECT_EQ(ParseInt64Text("21\r").value(), 21);    // Windows line tail
}

TEST(ParseTextTest, Int64RejectsGarbageAndPrefixes) {
  EXPECT_FALSE(ParseInt64Text("").ok());
  EXPECT_FALSE(ParseInt64Text("abc").ok());
  EXPECT_FALSE(ParseInt64Text("12abc").ok());  // atoi would yield 12
  EXPECT_FALSE(ParseInt64Text("1.5").ok());
  EXPECT_FALSE(ParseInt64Text("1 2").ok());
}

TEST(ParseTextTest, Int64RejectsOverflow) {
  EXPECT_FALSE(ParseInt64Text("9223372036854775808").ok());   // 2^63
  EXPECT_FALSE(ParseInt64Text("-9223372036854775809").ok());
  EXPECT_EQ(ParseInt64Text("9223372036854775807").value(),
            INT64_MAX);
}

TEST(ParseTextTest, DoubleAcceptsUsualForms) {
  EXPECT_EQ(ParseDoubleText("24.5").value(), 24.5);
  EXPECT_EQ(ParseDoubleText("-1e3").value(), -1000.0);
  EXPECT_EQ(ParseDoubleText(" 0.25\t").value(), 0.25);
}

TEST(ParseTextTest, DoubleRejectsGarbageAndPrefixes) {
  EXPECT_FALSE(ParseDoubleText("").ok());
  EXPECT_FALSE(ParseDoubleText("x").ok());
  EXPECT_FALSE(ParseDoubleText("1.2.3").ok());  // strtod stops at "1.2"
  EXPECT_FALSE(ParseDoubleText("24,5").ok());
}

TEST(ParseTextTest, DoubleTakesTheRecordFieldGrammar) {
  // Flags share the record files' field grammar: finite values only, and
  // no '+' or hex. strtod took all of these; `--epsilon nan` then reached
  // MakeDiscoverer's invariant checks and aborted the process.
  for (const char* text :
       {"inf", "-inf", "nan", "NaN", "1e999", "+5", "0x10", "1e-400"}) {
    EXPECT_FALSE(ParseDoubleText(text).ok()) << text;
  }
  EXPECT_EQ(ParseDoubleText(".5").value(), 0.5);
  EXPECT_EQ(ParseDoubleText("-0").value(), 0.0);
}

TEST(ParseTextTest, BoolAcceptsCanonicalTokens) {
  EXPECT_TRUE(ParseBoolText("true").value());
  EXPECT_TRUE(ParseBoolText("1").value());
  EXPECT_TRUE(ParseBoolText("yes").value());
  EXPECT_TRUE(ParseBoolText("on").value());
  EXPECT_FALSE(ParseBoolText("false").value());
  EXPECT_FALSE(ParseBoolText("0").value());
  EXPECT_FALSE(ParseBoolText("no").value());
  EXPECT_FALSE(ParseBoolText("off").value());
  EXPECT_FALSE(ParseBoolText("maybe").ok());
  EXPECT_FALSE(ParseBoolText("TRUE").ok());  // case-sensitive by design
}

TEST(FlagParserStrictTest, AbsentFlagYieldsDefault) {
  FlagParser flags = Parse({});
  int mu = -1;
  ASSERT_TRUE(flags.GetStrict("mu", 4, &mu).ok());
  EXPECT_EQ(mu, 4);
}

TEST(FlagParserStrictTest, MalformedValueNamesTheFlag) {
  FlagParser flags = Parse({"--mu", "abc"});
  int mu = -1;
  Status s = flags.GetStrict("mu", 4, &mu);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("--mu"), std::string::npos) << s.ToString();
  EXPECT_EQ(mu, 4);  // out still holds the default on error
}

TEST(FlagParserStrictTest, NonFiniteValueNamesTheFlag) {
  FlagParser flags = Parse({"--epsilon", "nan", "--min-duration=inf"});
  double epsilon = 0.0;
  Status s = flags.GetStrict("epsilon", 20.0, &epsilon);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("--epsilon"), std::string::npos) << s.ToString();
  EXPECT_EQ(epsilon, 20.0);
  double duration = 0.0;
  EXPECT_FALSE(flags.GetStrict("min-duration", 10.0, &duration).ok());
}

TEST(FlagParserStrictTest, IntRangeIsChecked) {
  FlagParser flags = Parse({"--n", "3000000000"});  // > INT_MAX
  int n = 0;
  Status s = flags.GetStrict("n", 1, &n);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  int64_t wide = 0;
  ASSERT_TRUE(flags.GetStrict("n", int64_t{1}, &wide).ok());
  EXPECT_EQ(wide, 3000000000LL);
}

TEST(FlagParserStrictTest, StrictBoolRejectsJunk) {
  FlagParser flags = Parse({"--flush=perhaps"});
  bool flush = false;
  EXPECT_FALSE(flags.GetStrict("flush", false, &flush).ok());
}

TEST(FlagParserLenientTest, LenientGettersFallBackOnMalformed) {
  // The two-argument getters are documented lenient: used by benches where
  // a bad value should not abort a sweep. Malformed → default, never a
  // best-effort prefix parse.
  FlagParser flags = Parse({"--objects", "12abc"});
  EXPECT_EQ(flags.GetInt("objects", 1000), 1000);
  EXPECT_EQ(flags.GetInt64("objects", int64_t{9}), 9);
  EXPECT_EQ(flags.GetDouble("objects", 2.5), 2.5);
}

}  // namespace
}  // namespace tcomp

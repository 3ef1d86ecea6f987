#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/clock.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"
#include "util/string_util.h"

namespace fnproxy::util {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad input");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad input");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kParseError, StatusCode::kUnsupported,
        StatusCode::kInternal, StatusCode::kResourceExhausted}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = Status::NotFound("nope");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

StatusOr<int> ParsePositive(std::string_view s) {
  FNPROXY_ASSIGN_OR_RETURN(int64_t v, ParseInt64(s));
  if (v <= 0) return Status::OutOfRange("not positive");
  return static_cast<int>(v);
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  EXPECT_TRUE(ParsePositive("5").ok());
  EXPECT_EQ(ParsePositive("x").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParsePositive("-3").status().code(), StatusCode::kOutOfRange);
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, TrimRemovesEdgesOnly) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n"), "");
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, "-"), "x-y-z");
  EXPECT_EQ(Join({}, "-"), "");
}

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(ToUpper("AbC"), "ABC");
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "selec"));
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("dbo.fGet", "dbo."));
  EXPECT_FALSE(StartsWith("db", "dbo."));
  EXPECT_TRUE(EndsWith("result.xml", ".xml"));
  EXPECT_FALSE(EndsWith("xml", ".xml"));
}

TEST(StringUtilTest, ParseInt64Strict) {
  EXPECT_EQ(*ParseInt64("123"), 123);
  EXPECT_EQ(*ParseInt64(" -7 "), -7);
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("1.5").ok());
}

TEST(StringUtilTest, ParseUint64DigitsOnlyWithoutWrapping) {
  EXPECT_EQ(*ParseUint64("0"), 0u);
  EXPECT_EQ(*ParseUint64("18446744073709551615"), ~uint64_t{0});
  // 2^64 and 2^64 + 1 used to wrap to 0 and 1 in hand-rolled digit loops.
  EXPECT_FALSE(ParseUint64("18446744073709551616").ok());
  EXPECT_FALSE(ParseUint64("18446744073709551617").ok());
  EXPECT_FALSE(ParseUint64("99999999999999999999999").ok());
  for (const char* bad : {"", " 1", "1 ", "+1", "-1", "-0", "1x", "0x1"}) {
    EXPECT_FALSE(ParseUint64(bad).ok()) << "'" << bad << "'";
  }
}

TEST(StringUtilTest, ParseUint64InRangeBoundsBothEnds) {
  EXPECT_EQ(*ParseUint64InRange("1", 1, 256), 1u);
  EXPECT_EQ(*ParseUint64InRange("256", 1, 256), 256u);
  EXPECT_EQ(*ParseUint64InRange("18446744073709551615", 0, ~uint64_t{0}),
            ~uint64_t{0});
  for (const char* bad : {"0", "257", "-1", "8x", "", "18446744073709551616"}) {
    const auto value = ParseUint64InRange(bad, 1, 256);
    ASSERT_FALSE(value.ok()) << "'" << bad << "'";
    EXPECT_EQ(value.status().message(),
              "expected a number from 1 to 256, got '" + std::string(bad) +
                  "'");
  }
}

TEST(StringUtilTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(*ParseDouble("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-2e3"), -2000.0);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
}

TEST(StringUtilTest, FormatDoubleRoundTrips) {
  for (double v : {0.0, 1.0, -1.5, 3.141592653589793, 1e-9, 123456.789,
                   0.1 + 0.2}) {
    EXPECT_DOUBLE_EQ(*ParseDouble(FormatDouble(v)), v) << v;
  }
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  bool differs = false;
  for (int i = 0; i < 10 && !differs; ++i) {
    differs = a.NextUint64() != b.NextUint64();
  }
  EXPECT_TRUE(differs);
}

TEST(RandomTest, BoundedDrawsInRange) {
  Random rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(10), 10u);
    double d = rng.NextDouble(2.0, 5.0);
    EXPECT_GE(d, 2.0);
    EXPECT_LT(d, 5.0);
  }
}

TEST(RandomTest, GaussianMomentsPlausible) {
  Random rng(11);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

// NextGaussian is BoxMuller over NextGaussianUniforms' pair: the catalog
// draws the pairs on one thread and transforms them on others, so the two
// must agree bit for bit, the cached second value included, with plain
// draws interleaved between pairs.
TEST(RandomTest, GaussianIsBoxMullerOverItsUniforms) {
  Random rng(2004);
  Random twin(2004);
  for (int i = 0; i < 5000; ++i) {
    double u1 = 0.0;
    double u2 = 0.0;
    twin.NextGaussianUniforms(&u1, &u2);
    EXPECT_GT(u1, 1e-300);
    EXPECT_LT(u1, 1.0);
    const GaussianPair pair = BoxMuller(u1, u2);
    EXPECT_EQ(rng.NextGaussian(), pair.cos);
    if (i % 3 == 0) {
      // A draw between the two halves does not disturb the cached value.
      EXPECT_EQ(rng.NextUint64(), twin.NextUint64());
    }
    EXPECT_EQ(rng.NextGaussian(), pair.sin);
    EXPECT_EQ(rng.NextDouble(), twin.NextDouble());
  }
}

TEST(RandomTest, BoxMullerFormula) {
  const GaussianPair pair = BoxMuller(0.25, 0.125);
  const double r = std::sqrt(-2.0 * std::log(0.25));
  EXPECT_DOUBLE_EQ(pair.cos, r * std::cos(M_PI / 4));
  EXPECT_DOUBLE_EQ(pair.sin, r * std::sin(M_PI / 4));
}

TEST(ZipfTest, RankZeroMostPopular) {
  Random rng(5);
  ZipfDistribution zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[99]);
}

TEST(ZipfTest, ThetaZeroIsUniformish) {
  Random rng(6);
  ZipfDistribution zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.02);
  }
}

TEST(SimulatedClockTest, AdvancesMonotonically) {
  SimulatedClock clock;
  EXPECT_EQ(clock.NowMicros(), 0);
  clock.Advance(100);
  clock.Advance(0);
  clock.Advance(-5);  // Negative advances are ignored.
  EXPECT_EQ(clock.NowMicros(), 100);
  clock.Reset();
  EXPECT_EQ(clock.NowMicros(), 0);
}

TEST(StopwatchTest, MeasuresNonNegative) {
  Stopwatch sw;
  EXPECT_GE(sw.ElapsedMicros(), 0);
}

TEST(LoggingTest, SinkReceivesMessagesAtOrAboveLevel) {
  static std::vector<std::string> captured;
  captured.clear();
  SetLogSink([](LogLevel, const std::string& msg) { captured.push_back(msg); });
  SetLogLevel(LogLevel::kWarning);
  FNPROXY_LOG(kInfo) << "dropped";
  FNPROXY_LOG(kError) << "kept " << 42;
  SetLogSink(nullptr);
  SetLogLevel(LogLevel::kWarning);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "kept 42");
}

}  // namespace
}  // namespace fnproxy::util

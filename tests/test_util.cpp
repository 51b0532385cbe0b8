// Unit tests for pil/util: error macros, logging, RNG, strings, tables.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "pil/util/error.hpp"
#include "pil/util/log.hpp"
#include "pil/util/rng.hpp"
#include "pil/util/stopwatch.hpp"
#include "pil/util/strings.hpp"
#include "pil/util/table.hpp"

namespace pil {
namespace {

// ---------------------------------------------------------------- error ----

TEST(Error, RequireThrowsWithContext) {
  try {
    PIL_REQUIRE(1 == 2, "one is not two");
    FAIL() << "PIL_REQUIRE did not throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("one is not two"), std::string::npos);
    EXPECT_NE(what.find("test_util.cpp"), std::string::npos);
  }
}

TEST(Error, RequirePassesSilently) {
  EXPECT_NO_THROW(PIL_REQUIRE(true, "never"));
}

TEST(Error, AssertThrowsOnViolation) {
  EXPECT_THROW(PIL_ASSERT(false, "broken invariant"), Error);
}

TEST(Error, IsARuntimeError) {
  EXPECT_THROW(throw Error("x"), std::runtime_error);
}

// ------------------------------------------------------------------ log ----

TEST(Log, LevelRoundTrip) {
  const LogLevel old = log_level();
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(old);
}

TEST(Log, SuppressedBelowThreshold) {
  const LogLevel old = log_level();
  set_log_level(LogLevel::kOff);
  // Nothing to assert on directly; just exercise the macro path.
  PIL_INFO("this must not appear " << 42);
  PIL_ERROR("nor this " << 43);
  set_log_level(old);
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(rng.uniform_int(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntRejectsEmptyRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(3, 2), Error);
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);  // crude mean check
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ReseedRestartsStream) {
  Rng rng(99);
  const auto first = rng.next_u64();
  rng.next_u64();
  rng.reseed(99);
  EXPECT_EQ(rng.next_u64(), first);
}

TEST(Rng, WorksWithStdShuffleConcept) {
  // Rng satisfies UniformRandomBitGenerator.
  static_assert(std::uniform_random_bit_generator<Rng>);
}

// ------------------------------------------------------------- strings ----

TEST(Strings, SplitWsBasic) {
  const auto v = split_ws("  a\tbb   ccc \n");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], "a");
  EXPECT_EQ(v[1], "bb");
  EXPECT_EQ(v[2], "ccc");
}

TEST(Strings, SplitWsEmpty) {
  EXPECT_TRUE(split_ws("").empty());
  EXPECT_TRUE(split_ws("   \t ").empty());
}

TEST(Strings, SplitOnPreservesEmptyFields) {
  const auto v = split_on("a,,b,", ',');
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], "a");
  EXPECT_EQ(v[1], "");
  EXPECT_EQ(v[2], "b");
  EXPECT_EQ(v[3], "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n"), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("LAYER m1", "LAYER"));
  EXPECT_FALSE(starts_with("LAY", "LAYER"));
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(parse_double(" -0.5 "), -0.5);
  EXPECT_THROW(parse_double("3.25x"), Error);
  EXPECT_THROW(parse_double(""), Error);
}

TEST(Strings, ParseDoubleErrorCarriesContext) {
  try {
    parse_double("nope", "DIE statement");
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("DIE statement"), std::string::npos);
  }
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_THROW(parse_int("4.2"), Error);
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 0), "1");
}

// -------------------------------------------------------------- table ----

TEST(Table, AlignedOutput) {
  Table t({"name", "tau"});
  t.add_row({"Normal", "114.0"});
  t.add_row({"ILP-II", "12.1"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| name   | tau   |"), std::string::npos);
  EXPECT_NE(s.find("| Normal | 114.0 |"), std::string::npos);
}

TEST(Table, CsvQuotesCommas) {
  Table t({"a", "b"});
  t.add_row({"x,y", "1"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n\"x,y\",1\n");
}

TEST(Table, RejectsWrongWidth) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), Error);
}

// ----------------------------------------------------------- stopwatch ----

TEST(Stopwatch, MonotoneNonNegative) {
  Stopwatch sw;
  const double a = sw.seconds();
  const double b = sw.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(Stopwatch, ResetRestarts) {
  Stopwatch sw;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  EXPECT_GT(sink, 0.0);
  sw.reset();
  EXPECT_LT(sw.seconds(), 0.5);
}

}  // namespace
}  // namespace pil

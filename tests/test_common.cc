/**
 * @file
 * Tests for common utilities: units, logging, the number grammar, RNG,
 * and table printing.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "common/logging.hh"
#include "common/parse_number.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "common/units.hh"

namespace libra {
namespace {

TEST(Units, TransferTime)
{
    // 1 GB over 1 GB/s is exactly one second.
    EXPECT_DOUBLE_EQ(transferTime(1e9, 1.0), 1.0);
    // 100 GB over 50 GB/s is two seconds.
    EXPECT_DOUBLE_EQ(transferTime(100e9, 50.0), 2.0);
    // Zero bytes take zero time.
    EXPECT_DOUBLE_EQ(transferTime(0.0, 123.0), 0.0);
}

TEST(Units, ComputeTime)
{
    // 234 TFLOPs of work at 234 TFLOPS takes one second.
    EXPECT_DOUBLE_EQ(computeTime(234e12, 234.0), 1.0);
}

TEST(Units, Constants)
{
    EXPECT_DOUBLE_EQ(kGB, 1e9);
    EXPECT_DOUBLE_EQ(kFp16Bytes, 2.0);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config: ", 42), FatalError);
    try {
        fatal("value=", 7);
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("value=7"),
                  std::string::npos);
    }
}

TEST(Logging, InformAndWarnDoNotThrow)
{
    setInformEnabled(false);
    EXPECT_NO_THROW(inform("quiet"));
    setInformEnabled(true);
    EXPECT_NO_THROW(warn("just a warning ", 1));
}

TEST(ParseNumber, RealsAreWholeFiniteNormalDecimals)
{
    EXPECT_EQ(tryParseNumber("0.30000000000000004", 0.0, 1.0),
              0.30000000000000004);
    EXPECT_EQ(tryParseNumber("1.5e7", 0.0, 1e15), 1.5e7);
    EXPECT_EQ(tryParseNumber("1E-300", 0.0, 1.0), 1e-300);
    EXPECT_EQ(tryParseNumber("-2.5", -3.0, 0.0), -2.5);
    for (const char* bad :
         {"", " 1", "1 ", "+1", "1e", ".", "1.2.3", "0x10", "1,5", "inf",
          "-inf", "nan", "infinity", "1e-320", "1e400", "-1e400"}) {
        SCOPED_TRACE(bad);
        EXPECT_FALSE(tryParseNumber(bad, -1e308, 1e308));
    }
}

TEST(ParseNumber, IntegersAreExactBaseTenDigits)
{
    const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    // Above 2^53 a double would round these to a neighbor.
    EXPECT_EQ(tryParseNumber("9007199254740993", std::uint64_t{0}, max),
              9007199254740993ull);
    EXPECT_EQ(tryParseNumber("18446744073709551615", std::uint64_t{0},
                             max),
              max);
    EXPECT_EQ(tryParseNumber("-7", -10, 10), -7);
    for (const char* bad : {"18446744073709551616", "-1", "+1", "1.0",
                            "1e3", "0x10", " 1", ""}) {
        SCOPED_TRACE(bad);
        EXPECT_FALSE(tryParseNumber(bad, std::uint64_t{0}, max));
    }
}

TEST(ParseNumber, ValuesOutsideTheRangeAreRejected)
{
    EXPECT_EQ(tryParseNumber("0", 0.0, 1.0), 0.0);
    EXPECT_EQ(tryParseNumber("1", 0.0, 1.0), 1.0);
    EXPECT_FALSE(tryParseNumber("1.0000000000000002", 0.0, 1.0));
    EXPECT_FALSE(tryParseNumber("-1", 0.0, 1.0));
    EXPECT_FALSE(tryParseNumber("0", kPositive, 1.0));
    EXPECT_FALSE(tryParseNumber("-0", kPositive, 1.0));
    EXPECT_EQ(tryParseNumber("4096", 1, 4096), 4096);
    EXPECT_FALSE(tryParseNumber("4097", 1, 4096));
    EXPECT_FALSE(tryParseNumber("0", 1, 4096));
}

TEST(ParseNumber, ErrorsNameTheFieldTokenAndRange)
{
    auto message = [](auto parse) {
        try {
            parse();
        } catch (const FatalError& e) {
            return fatalMessage(e);
        }
        return std::string("no error");
    };
    EXPECT_EQ(message([] { parseNumber("-1", kPositive, 1e6, "weight"); }),
              "bad weight '-1' (expected a number in (0, 1e+06])");
    EXPECT_EQ(message([] { parseNumber("2", 0.0, 1.0, "rate"); }),
              "bad rate '2' (expected a number in [0, 1])");
    EXPECT_EQ(message([] { parseNumber("2.5", 1, 8, "count"); }),
              "bad count '2.5' (expected an integer in [1, 8])");
    EXPECT_EQ(parseNumber("8", 1, 8, "count"), 8);
}

TEST(Rng, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.simplexPoint(3, 1.0), b.simplexPoint(3, 1.0));
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    bool anyDiff = false;
    for (int i = 0; i < 16 && !anyDiff; ++i)
        anyDiff = a.simplexPoint(3, 1.0) != b.simplexPoint(3, 1.0);
    EXPECT_TRUE(anyDiff);
}

TEST(Rng, SimplexPointSumsToTotal)
{
    Rng rng(11);
    for (int trial = 0; trial < 20; ++trial) {
        auto p = rng.simplexPoint(4, 100.0);
        ASSERT_EQ(p.size(), 4u);
        double sum = 0.0;
        for (double x : p) {
            EXPECT_GT(x, 0.0);
            sum += x;
        }
        EXPECT_NEAR(sum, 100.0, 1e-9);
    }
}

TEST(Table, AlignedOutput)
{
    Table t("demo");
    t.header({"a", "bbbb"});
    t.row({"xx", "1"});
    std::ostringstream oss;
    t.print(oss);
    std::string s = oss.str();
    EXPECT_NE(s.find("== demo =="), std::string::npos);
    EXPECT_NE(s.find("bbbb"), std::string::npos);
    EXPECT_NE(s.find("xx"), std::string::npos);
}

TEST(Table, NumFormatting)
{
    EXPECT_EQ(Table::num(1.23456, 2), "1.23");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(TableDeathTest, RowWidthMismatchPanics)
{
    Table t;
    t.header({"a", "b"});
    EXPECT_DEATH(t.row({"only-one"}), "panic");
}

} // namespace
} // namespace libra

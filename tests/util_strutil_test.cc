/**
 * @file
 * Unit tests for string helpers.
 */
#include <gtest/gtest.h>

#include "util/strutil.h"

namespace sqlpp {
namespace {

TEST(StrUtilTest, CaseConversion)
{
    EXPECT_EQ(toUpper("select * FROM t0"), "SELECT * FROM T0");
    EXPECT_EQ(toLower("SeLeCt"), "select");
    EXPECT_EQ(toUpper(""), "");
}

TEST(StrUtilTest, EqualsIgnoreCase)
{
    EXPECT_TRUE(equalsIgnoreCase("select", "SELECT"));
    EXPECT_TRUE(equalsIgnoreCase("", ""));
    EXPECT_FALSE(equalsIgnoreCase("select", "selec"));
    EXPECT_FALSE(equalsIgnoreCase("a", "b"));
}

TEST(StrUtilTest, Join)
{
    EXPECT_EQ(join({}, ", "), "");
    EXPECT_EQ(join({"a"}, ", "), "a");
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StrUtilTest, SplitKeepsEmptyFields)
{
    auto parts = split("a,,b", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
    EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(StrUtilTest, Trim)
{
    EXPECT_EQ(trim("  x  "), "x");
    EXPECT_EQ(trim("x"), "x");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(StrUtilTest, StartsWith)
{
    EXPECT_TRUE(startsWith("SELECT 1", "SELECT"));
    EXPECT_FALSE(startsWith("SEL", "SELECT"));
    EXPECT_TRUE(startsWith("anything", ""));
}

TEST(StrUtilTest, SqlQuoteEscapesQuotes)
{
    EXPECT_EQ(sqlQuote("hello"), "'hello'");
    EXPECT_EQ(sqlQuote("it's"), "'it''s'");
    EXPECT_EQ(sqlQuote(""), "''");
    EXPECT_EQ(sqlQuote("''"), "''''''");
}

TEST(StrUtilTest, JsonEscapeQuotesAndControlBytes)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("line\nnext"), "line\\nnext");
    EXPECT_EQ(jsonEscape("tab\there"), "tab\\there");
    EXPECT_EQ(jsonEscape(std::string("\x01", 1)), "\\u0001");
    EXPECT_EQ(jsonEscape(""), "");
}

TEST(StrUtilTest, Format)
{
    EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(format("%.2f", 1.005), "1.00");
    EXPECT_EQ(format("empty"), "empty");
}

TEST(StrUtilTest, Fnv1aStableAndSeedSensitive)
{
    EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
    EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
    EXPECT_NE(fnv1a("abc", 1), fnv1a("abc", 2));
}

} // namespace
} // namespace sqlpp

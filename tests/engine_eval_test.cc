/**
 * @file
 * Expression semantics tests, driven through FROM-less SELECTs so the
 * whole pipeline (text -> parse -> plan -> eval) is exercised.
 */
#include <gtest/gtest.h>

#include "engine/database.h"
#include "util/strutil.h"

namespace sqlpp {
namespace {

/** Evaluate a scalar SQL expression and return the single cell. */
Value
evalSql(Database &db, const std::string &expr)
{
    auto result = db.execute("SELECT " + expr);
    EXPECT_TRUE(result.isOk())
        << expr << " -> " << result.status().toString();
    if (!result.isOk())
        return Value::null();
    EXPECT_EQ(result.value().rowCount(), 1u) << expr;
    EXPECT_EQ(result.value().columnCount(), 1u) << expr;
    return result.value().rows()[0][0];
}

Value
evalSql(const std::string &expr)
{
    Database db;
    return evalSql(db, expr);
}

Status
evalError(const std::string &expr, EngineConfig config = {})
{
    Database db(config);
    auto result = db.execute("SELECT " + expr);
    EXPECT_FALSE(result.isOk()) << expr;
    return result.isOk() ? Status::ok() : result.status();
}

TEST(EvalTest, Arithmetic)
{
    EXPECT_EQ(evalSql("1 + 2").asInt(), 3);
    EXPECT_EQ(evalSql("7 - 10").asInt(), -3);
    EXPECT_EQ(evalSql("6 * 7").asInt(), 42);
    EXPECT_EQ(evalSql("7 / 2").asInt(), 3);
    EXPECT_EQ(evalSql("7 % 3").asInt(), 1);
    EXPECT_EQ(evalSql("-7 / 2").asInt(), -3); // trunc toward zero
}

TEST(EvalTest, ArithmeticNullPropagation)
{
    EXPECT_TRUE(evalSql("1 + NULL").isNull());
    EXPECT_TRUE(evalSql("NULL * 3").isNull());
    EXPECT_TRUE(evalSql("-(CAST(NULL AS INTEGER))").isNull());
}

TEST(EvalTest, ArithmeticOverflowErrors)
{
    EXPECT_EQ(evalError("9223372036854775807 + 1").code(),
              ErrorCode::RuntimeError);
    EXPECT_EQ(evalError("(0 - 9223372036854775807 - 1) * (0 - 1)").code(),
              ErrorCode::RuntimeError);
}

TEST(EvalTest, DivisionByZeroBehaviorKnob)
{
    // Default (SQLite-like): NULL.
    EXPECT_TRUE(evalSql("1 / 0").isNull());
    EXPECT_TRUE(evalSql("1 % 0").isNull());
    // Strict dialects raise.
    EngineConfig strict;
    strict.behavior.divZeroIsNull = false;
    EXPECT_EQ(evalError("1 / 0", strict).code(), ErrorCode::RuntimeError);
}

TEST(EvalTest, DynamicCoercionInArithmetic)
{
    EXPECT_EQ(evalSql("'12abc' + 1").asInt(), 13);
    EXPECT_EQ(evalSql("'abc' + 1").asInt(), 1);
    EXPECT_EQ(evalSql("TRUE + TRUE").asInt(), 2);
    EXPECT_EQ(evalSql("'-3' * 2").asInt(), -6);
}

TEST(EvalTest, ComparisonBasics)
{
    EXPECT_TRUE(evalSql("1 < 2").asBool());
    EXPECT_FALSE(evalSql("2 <= 1").asBool());
    EXPECT_TRUE(evalSql("2 >= 2").asBool());
    EXPECT_TRUE(evalSql("1 = 1").asBool());
    EXPECT_TRUE(evalSql("1 <> 2").asBool());
    EXPECT_TRUE(evalSql("1 != 2").asBool());
}

TEST(EvalTest, ComparisonNullIsNull)
{
    EXPECT_TRUE(evalSql("NULL = NULL").isNull());
    EXPECT_TRUE(evalSql("1 < NULL").isNull());
    EXPECT_TRUE(evalSql("NULL <> NULL").isNull());
}

TEST(EvalTest, MixedClassComparison)
{
    // Numeric class sorts before text class (SQLite rule).
    EXPECT_TRUE(evalSql("1 < 'a'").asBool());
    EXPECT_FALSE(evalSql("'a' < 99999").asBool());
    // Cross-class equality is false, not coerced.
    EXPECT_FALSE(evalSql("1 = '1'").asBool());
    EXPECT_TRUE(evalSql("TRUE = 1").asBool()); // same numeric class
}

TEST(EvalTest, NullSafeEquals)
{
    EXPECT_TRUE(evalSql("NULL <=> NULL").asBool());
    EXPECT_FALSE(evalSql("NULL <=> 1").asBool());
    EXPECT_TRUE(evalSql("2 <=> 2").asBool());
    EXPECT_FALSE(evalSql("2 <=> 3").asBool());
}

TEST(EvalTest, IsDistinctFrom)
{
    EXPECT_FALSE(evalSql("NULL IS DISTINCT FROM NULL").asBool());
    EXPECT_TRUE(evalSql("NULL IS DISTINCT FROM 1").asBool());
    EXPECT_TRUE(evalSql("1 IS NOT DISTINCT FROM 1").asBool());
}

TEST(EvalTest, ThreeValuedLogic)
{
    EXPECT_TRUE(evalSql("NULL AND TRUE").isNull());
    EXPECT_FALSE(evalSql("NULL AND FALSE").asBool());
    EXPECT_TRUE(evalSql("NULL OR TRUE").asBool());
    EXPECT_TRUE(evalSql("NULL OR FALSE").isNull());
    EXPECT_TRUE(evalSql("NOT NULL").isNull());
    EXPECT_FALSE(evalSql("NOT TRUE").asBool());
    EXPECT_TRUE(evalSql("NOT FALSE").asBool());
}

TEST(EvalTest, IsNullFamily)
{
    EXPECT_TRUE(evalSql("NULL IS NULL").asBool());
    EXPECT_FALSE(evalSql("1 IS NULL").asBool());
    EXPECT_TRUE(evalSql("1 IS NOT NULL").asBool());
    EXPECT_TRUE(evalSql("TRUE IS TRUE").asBool());
    EXPECT_FALSE(evalSql("NULL IS TRUE").asBool());
    EXPECT_FALSE(evalSql("NULL IS FALSE").asBool());
    EXPECT_TRUE(evalSql("NULL IS NOT TRUE").asBool());
    EXPECT_TRUE(evalSql("FALSE IS NOT TRUE").asBool());
}

TEST(EvalTest, Bitwise)
{
    EXPECT_EQ(evalSql("5 & 3").asInt(), 1);
    EXPECT_EQ(evalSql("5 | 3").asInt(), 7);
    EXPECT_EQ(evalSql("5 ^ 3").asInt(), 6);
    EXPECT_EQ(evalSql("1 << 4").asInt(), 16);
    EXPECT_EQ(evalSql("16 >> 2").asInt(), 4);
    EXPECT_EQ(evalSql("-8 >> 1").asInt(), -4); // arithmetic shift
    EXPECT_EQ(evalSql("~0").asInt(), -1);
    EXPECT_EQ(evalSql("1 << 100").asInt(), 0); // out-of-range count
}

TEST(EvalTest, Concat)
{
    EXPECT_EQ(evalSql("'a' || 'b'").asText(), "ab");
    EXPECT_EQ(evalSql("1 || 2").asText(), "12"); // dynamic render
    EXPECT_TRUE(evalSql("'a' || NULL").isNull());
}

TEST(EvalTest, LikePatterns)
{
    EXPECT_TRUE(evalSql("'hello' LIKE 'h%'").asBool());
    EXPECT_TRUE(evalSql("'hello' LIKE 'h_llo'").asBool());
    EXPECT_FALSE(evalSql("'hello' LIKE 'h_o'").asBool());
    EXPECT_TRUE(evalSql("'HELLO' LIKE 'hello'").asBool()); // ci default
    EXPECT_TRUE(evalSql("'x' NOT LIKE 'y%'").asBool());
    EXPECT_TRUE(evalSql("'' LIKE ''").asBool());
    EXPECT_TRUE(evalSql("'abc' LIKE '%'").asBool());
    EXPECT_TRUE(evalSql("NULL LIKE 'x'").isNull());
}

TEST(EvalTest, GlobPatterns)
{
    EXPECT_TRUE(evalSql("'hello' GLOB 'h*'").asBool());
    EXPECT_FALSE(evalSql("'HELLO' GLOB 'hello'").asBool()); // cs
    EXPECT_TRUE(evalSql("'ab' GLOB '?b'").asBool());
}

TEST(EvalTest, Between)
{
    EXPECT_TRUE(evalSql("2 BETWEEN 1 AND 3").asBool());
    EXPECT_FALSE(evalSql("0 BETWEEN 1 AND 3").asBool());
    EXPECT_TRUE(evalSql("0 NOT BETWEEN 1 AND 3").asBool());
    EXPECT_TRUE(evalSql("2 BETWEEN NULL AND 3").isNull());
    // Short-circuit: below the low bound decides regardless of NULL high.
    EXPECT_FALSE(evalSql("0 BETWEEN 1 AND NULL").asBool());
}

TEST(EvalTest, InList)
{
    EXPECT_TRUE(evalSql("2 IN (1, 2, 3)").asBool());
    EXPECT_FALSE(evalSql("5 IN (1, 2, 3)").asBool());
    EXPECT_TRUE(evalSql("5 NOT IN (1, 2, 3)").asBool());
    // NULL semantics: no match but a NULL present -> NULL.
    EXPECT_TRUE(evalSql("5 IN (1, NULL)").isNull());
    EXPECT_TRUE(evalSql("1 IN (1, NULL)").asBool());
    EXPECT_TRUE(evalSql("5 NOT IN (1, NULL)").isNull());
    EXPECT_TRUE(evalSql("NULL IN (1, 2)").isNull());
}

TEST(EvalTest, CaseSearched)
{
    EXPECT_EQ(evalSql("CASE WHEN 1 < 2 THEN 'a' ELSE 'b' END").asText(),
              "a");
    EXPECT_EQ(evalSql("CASE WHEN 1 > 2 THEN 'a' ELSE 'b' END").asText(),
              "b");
    EXPECT_TRUE(evalSql("CASE WHEN 1 > 2 THEN 'a' END").isNull());
    // NULL condition is not taken.
    EXPECT_EQ(evalSql("CASE WHEN NULL THEN 1 ELSE 2 END").asInt(), 2);
}

TEST(EvalTest, CaseSimple)
{
    EXPECT_EQ(evalSql("CASE 2 WHEN 1 THEN 'x' WHEN 2 THEN 'y' END")
                  .asText(),
              "y");
    // NULL operand never matches a WHEN.
    EXPECT_TRUE(
        evalSql("CASE NULL WHEN NULL THEN 'x' END").isNull());
}

TEST(EvalTest, Cast)
{
    EXPECT_EQ(evalSql("CAST('12abc' AS INTEGER)").asInt(), 12);
    EXPECT_EQ(evalSql("CAST('abc' AS INTEGER)").asInt(), 0);
    EXPECT_EQ(evalSql("CAST(42 AS TEXT)").asText(), "42");
    EXPECT_TRUE(evalSql("CAST(1 AS BOOLEAN)").asBool());
    EXPECT_FALSE(evalSql("CAST(0 AS BOOLEAN)").asBool());
    EXPECT_TRUE(evalSql("CAST(NULL AS TEXT)").isNull());
    EXPECT_EQ(evalSql("CAST(TRUE AS TEXT)").asText(), "TRUE");
}

TEST(EvalTest, UnknownColumnIsSemanticError)
{
    EXPECT_EQ(evalError("no_such_col + 1").code(),
              ErrorCode::SemanticError);
}

TEST(EvalTest, UnknownFunctionIsSemanticError)
{
    EXPECT_EQ(evalError("FROBNICATE(1)").code(), ErrorCode::SemanticError);
}

TEST(EvalTest, WrongArityIsSemanticError)
{
    EXPECT_EQ(evalError("ABS(1, 2)").code(), ErrorCode::SemanticError);
    EXPECT_EQ(evalError("NULLIF(1)").code(), ErrorCode::SemanticError);
}

TEST(EvalTest, AggregateOutsideGroupContext)
{
    // Aggregate in WHERE is a semantic error.
    Database db;
    ASSERT_TRUE(db.execute("CREATE TABLE t0 (c0 INT)").isOk());
    auto result = db.execute("SELECT c0 FROM t0 WHERE SUM(c0) > 1");
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), ErrorCode::SemanticError);
}

// ---------------------------------------------------------------------
// Corner-pinning regressions for the evaluator's 3VL, coercion,
// overflow and LIKE semantics: each case names one corner, so a drift
// trips a named assertion instead of a generated-query mismatch.
// ---------------------------------------------------------------------

TEST(EvalTest, NullComparisonChains)
{
    // A comparison against NULL is NULL, and NULL propagates through
    // further comparisons — it never collapses to false mid-chain.
    EXPECT_TRUE(evalSql("(NULL = NULL)").isNull());
    EXPECT_TRUE(evalSql("(1 = NULL) = (1 = 1)").isNull());
    EXPECT_TRUE(evalSql("NOT (1 < NULL)").isNull());
    // Kleene logic decides when it can, stays NULL when it cannot.
    EXPECT_FALSE(evalSql("(1 = NULL) AND (1 = 2)").asBool());
    EXPECT_TRUE(evalSql("(1 = NULL) OR (1 = 1)").asBool());
    EXPECT_TRUE(evalSql("(1 = NULL) AND (1 = 1)").isNull());
    EXPECT_TRUE(evalSql("(1 = NULL) OR (1 = 2)").isNull());
    // Null-safe operators are total even on two NULLs.
    EXPECT_TRUE(evalSql("NULL <=> NULL").asBool());
    EXPECT_FALSE(evalSql("1 <=> NULL").asBool());
    EXPECT_FALSE(evalSql("NULL IS DISTINCT FROM NULL").asBool());
    EXPECT_TRUE(evalSql("NULL IS NOT DISTINCT FROM NULL").asBool());
}

TEST(EvalTest, TextToNumericBoundaries)
{
    // Affinity parsing saturates instead of erroring, and INT64_MIN's
    // magnitude — one past INT64_MAX — is reached *via* saturation.
    EXPECT_EQ(evalSql("CAST('9223372036854775807' AS INTEGER)").asInt(),
              INT64_MAX);
    EXPECT_EQ(evalSql("CAST('9223372036854775808' AS INTEGER)").asInt(),
              INT64_MAX); // saturates
    EXPECT_EQ(
        evalSql("CAST('-9223372036854775808' AS INTEGER)").asInt(),
        INT64_MIN);
    EXPECT_EQ(
        evalSql("CAST('-99999999999999999999' AS INTEGER)").asInt(),
        INT64_MIN); // saturates
    // Leading whitespace and sign are consumed; parsing stops at the
    // first non-digit; no digits at all means 0.
    EXPECT_EQ(evalSql("CAST('  42abc' AS INTEGER)").asInt(), 42);
    EXPECT_EQ(evalSql("CAST('+7' AS INTEGER)").asInt(), 7);
    EXPECT_EQ(evalSql("CAST('abc' AS INTEGER)").asInt(), 0);
    EXPECT_EQ(evalSql("CAST('' AS INTEGER)").asInt(), 0);
    EXPECT_EQ(evalSql("CAST('-' AS INTEGER)").asInt(), 0);
}

TEST(EvalTest, Int64MinArithmeticEdges)
{
    // INT64_MIN / -1 overflows (no representable positive); the
    // matching modulo is exactly 0, not an error.
    const char *min_expr = "(0 - 9223372036854775807 - 1)";
    EXPECT_EQ(
        evalError(std::string(min_expr) + " / (0 - 1)").code(),
        ErrorCode::RuntimeError);
    EXPECT_EQ(evalSql(std::string(min_expr) + " % (0 - 1)").asInt(), 0);
    EXPECT_EQ(evalError(concat("-", min_expr)).code(),
              ErrorCode::RuntimeError);
}

TEST(EvalTest, ShiftCountEdges)
{
    // Out-of-range shift counts (negative, or >= 64) yield 0 in both
    // directions; in-range right shift is arithmetic.
    EXPECT_EQ(evalSql("1 << 63").asInt(), INT64_MIN);
    EXPECT_EQ(evalSql("1 << 64").asInt(), 0);
    EXPECT_EQ(evalSql("1 << (0 - 1)").asInt(), 0);
    EXPECT_EQ(evalSql("1 >> 64").asInt(), 0);
    EXPECT_EQ(evalSql("(0 - 8) >> 1").asInt(), -4); // arithmetic
    EXPECT_TRUE(evalSql("1 << NULL").isNull());
}

TEST(EvalTest, LikeCorners)
{
    // '_' matches exactly one character — never zero — and the empty
    // string is matched only by all-'%' patterns.
    EXPECT_FALSE(evalSql("'' LIKE '_'").asBool());
    EXPECT_TRUE(evalSql("'' LIKE '%%'").asBool());
    EXPECT_FALSE(evalSql("'ab' LIKE 'a'").asBool());
    EXPECT_TRUE(evalSql("'ab' LIKE 'a_'").asBool());
    // Backslash is an ordinary character (the grammar has no ESCAPE
    // clause), so it must match itself, case-insensitively around it.
    EXPECT_TRUE(evalSql("'a\\B' LIKE 'A\\b'").asBool());
    // A NULL pattern poisons the match just like a NULL operand.
    EXPECT_TRUE(evalSql("'x' LIKE NULL").isNull());
    EXPECT_TRUE(evalSql("NULL NOT LIKE 'x'").isNull());
}

TEST(EvalTest, BetweenDecidesAgainstNullBounds)
{
    // Kleene AND inside BETWEEN: a decided-false side wins over a NULL
    // side from either direction, and NOT BETWEEN negates the whole
    // three-valued result (NULL stays NULL).
    EXPECT_FALSE(evalSql("5 BETWEEN NULL AND 2").asBool());
    EXPECT_TRUE(evalSql("5 NOT BETWEEN NULL AND 2").asBool());
    EXPECT_TRUE(evalSql("2 NOT BETWEEN NULL AND 3").isNull());
    EXPECT_TRUE(evalSql("NULL BETWEEN 1 AND 2").isNull());
    EXPECT_TRUE(evalSql("NULL NOT BETWEEN 1 AND 2").isNull());
}

TEST(EvalTest, MixedClassComparisonOrdersNumericFirst)
{
    // SQLite's class order: every numeric sorts before every text, so
    // cross-class comparisons decide on class, not content.
    EXPECT_TRUE(evalSql("1 < 'abc'").asBool());
    EXPECT_TRUE(evalSql("'abc' > 9223372036854775807").asBool());
    EXPECT_FALSE(evalSql("'1' = 1").asBool());
    // Boolean belongs to the numeric class.
    EXPECT_TRUE(evalSql("(1 = 1) = 1").asBool());
    EXPECT_TRUE(evalSql("(1 = 2) < 'a'").asBool());
}

} // namespace
} // namespace sqlpp

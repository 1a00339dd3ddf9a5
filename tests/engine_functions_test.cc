/**
 * @file
 * Tests for the 58 built-in scalar functions and the aggregate set.
 */
#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/functions.h"

namespace sqlpp {
namespace {

Value
evalSql(const std::string &expr, EngineConfig config = {})
{
    Database db(config);
    auto result = db.execute("SELECT " + expr);
    EXPECT_TRUE(result.isOk())
        << expr << " -> " << result.status().toString();
    if (!result.isOk())
        return Value::null();
    return result.value().rows()[0][0];
}

Status
evalError(const std::string &expr, EngineConfig config = {})
{
    Database db(config);
    auto result = db.execute("SELECT " + expr);
    EXPECT_FALSE(result.isOk()) << expr;
    return result.isOk() ? Status::ok() : result.status();
}

TEST(FunctionsTest, RegistryHas58Functions)
{
    // Table 1 of the paper: 58 functions.
    EXPECT_EQ(FunctionRegistry::instance().size(), 58u);
}

TEST(FunctionsTest, MathBasics)
{
    EXPECT_EQ(evalSql("ABS(-5)").asInt(), 5);
    EXPECT_EQ(evalSql("ABS(5)").asInt(), 5);
    EXPECT_EQ(evalSql("SIGN(-9)").asInt(), -1);
    EXPECT_EQ(evalSql("SIGN(0)").asInt(), 0);
    EXPECT_EQ(evalSql("MOD(7, 3)").asInt(), 1);
    EXPECT_EQ(evalSql("POWER(2, 10)").asInt(), 1024);
    EXPECT_EQ(evalSql("POWER(3, 0)").asInt(), 1);
    EXPECT_EQ(evalSql("POWER(-1, 5)").asInt(), -1);
    EXPECT_EQ(evalSql("SQRT(16)").asInt(), 4);
    EXPECT_EQ(evalSql("SQRT(17)").asInt(), 4);
    EXPECT_EQ(evalSql("FLOOR(3)").asInt(), 3);
    EXPECT_EQ(evalSql("CEIL(3)").asInt(), 3);
    EXPECT_EQ(evalSql("ROUND(3)").asInt(), 3);
}

TEST(FunctionsTest, SqrtAtInt64Boundaries)
{
    // 3037000499^2 = 9223372030926249001 is the largest square that fits
    // in int64_t; the integer correction must not square past it.
    EXPECT_EQ(evalSql("SQRT(9223372036854775807)").asInt(), 3037000499);
    EXPECT_EQ(evalSql("SQRT(9223372036854775806)").asInt(), 3037000499);
    EXPECT_EQ(evalSql("SQRT(9223372030926249001)").asInt(), 3037000499);
    EXPECT_EQ(evalSql("SQRT(9223372030926249000)").asInt(), 3037000498);
    EXPECT_EQ(evalSql("SQRT(0)").asInt(), 0);
    EXPECT_EQ(evalSql("SQRT(1)").asInt(), 1);
    EXPECT_EQ(evalSql("SQRT(99)").asInt(), 9);
    EXPECT_EQ(evalSql("SQRT(100)").asInt(), 10);
}

TEST(FunctionsTest, RegistryFindsEveryNameAndNothingElse)
{
    const FunctionRegistry &registry = FunctionRegistry::instance();
    for (const std::string &name : registry.names()) {
        const FunctionImpl *impl = registry.find(name);
        ASSERT_NE(impl, nullptr) << name;
        EXPECT_EQ(impl->sig.name, name);
    }
    EXPECT_EQ(registry.find("NO_SUCH_FUNCTION"), nullptr);
    EXPECT_EQ(registry.find("abs"), nullptr); // lookup is by uppercase
}

TEST(FunctionsTest, MathOverflowAndNull)
{
    EXPECT_EQ(evalError("POWER(10, 100)").code(),
              ErrorCode::RuntimeError);
    EXPECT_TRUE(evalSql("ABS(NULL)").isNull());
    EXPECT_TRUE(evalSql("MOD(1, NULL)").isNull());
    EXPECT_TRUE(evalSql("MOD(5, 0)").isNull()); // div-zero-as-null default
}

TEST(FunctionsTest, FixedPointTranscendentals)
{
    // SIN(x) == round(sin(x) * 1000).
    EXPECT_EQ(evalSql("SIN(0)").asInt(), 0);
    EXPECT_EQ(evalSql("SIN(1)").asInt(), 841);
    EXPECT_EQ(evalSql("COS(0)").asInt(), 1000);
    EXPECT_EQ(evalSql("TAN(1)").asInt(), 1557);
    EXPECT_EQ(evalSql("ATAN(1)").asInt(), 785);
    EXPECT_EQ(evalSql("EXP(1)").asInt(), 2718);
    EXPECT_EQ(evalSql("LN(1)").asInt(), 0);
    EXPECT_EQ(evalSql("LOG10(100)").asInt(), 2000);
    EXPECT_EQ(evalSql("LOG2(8)").asInt(), 3000);
    EXPECT_EQ(evalSql("PI()").asInt(), 3142);
    EXPECT_EQ(evalSql("ATAN2(1, 1)").asInt(), 785);
    EXPECT_EQ(evalSql("DEGREES(3)").asInt(), 172);
}

TEST(FunctionsTest, DomainErrorsFollowBehaviorKnob)
{
    // Paper Section 4: "ASIN(1) can succeed while ASIN(2) throws".
    EXPECT_EQ(evalSql("ASIN(1)").asInt(), 1571);
    EXPECT_EQ(evalError("ASIN(2)").code(), ErrorCode::RuntimeError);
    EXPECT_EQ(evalError("LN(0)").code(), ErrorCode::RuntimeError);
    EXPECT_EQ(evalError("SQRT(-1)").code(), ErrorCode::RuntimeError);
    EXPECT_EQ(evalError("EXP(100)").code(), ErrorCode::RuntimeError);

    EngineConfig lax;
    lax.behavior.domainErrorIsNull = true;
    EXPECT_TRUE(evalSql("ASIN(2)", lax).isNull());
    EXPECT_TRUE(evalSql("SQRT(-1)", lax).isNull());
}

TEST(FunctionsTest, StringBasics)
{
    EXPECT_EQ(evalSql("LENGTH('hello')").asInt(), 5);
    EXPECT_EQ(evalSql("LENGTH('')").asInt(), 0);
    EXPECT_EQ(evalSql("LOWER('AbC')").asText(), "abc");
    EXPECT_EQ(evalSql("UPPER('AbC')").asText(), "ABC");
    EXPECT_EQ(evalSql("TRIM('  x  ')").asText(), "x");
    EXPECT_EQ(evalSql("LTRIM('  x  ')").asText(), "x  ");
    EXPECT_EQ(evalSql("RTRIM('  x  ')").asText(), "  x");
    EXPECT_EQ(evalSql("REVERSE('abc')").asText(), "cba");
    EXPECT_EQ(evalSql("REPEAT('ab', 3)").asText(), "ababab");
    EXPECT_EQ(evalSql("LEFT('hello', 2)").asText(), "he");
    EXPECT_EQ(evalSql("RIGHT('hello', 2)").asText(), "lo");
    EXPECT_EQ(evalSql("ASCII('A')").asInt(), 65);
    EXPECT_EQ(evalSql("CHR(65)").asText(), "A");
    EXPECT_EQ(evalSql("HEX('AB')").asText(), "4142");
    EXPECT_EQ(evalSql("SPACE(3)").asText(), "   ");
    EXPECT_EQ(evalSql("LPAD('x', 3)").asText(), "  x");
    EXPECT_EQ(evalSql("RPAD('x', 3, '.')").asText(), "x..");
    EXPECT_TRUE(evalSql("STARTS_WITH('hello', 'he')").asBool());
    EXPECT_FALSE(evalSql("STARTS_WITH('hello', 'lo')").asBool());
}

TEST(FunctionsTest, ReplaceSemantics)
{
    EXPECT_EQ(evalSql("REPLACE('banana', 'an', 'x')").asText(), "bxxa");
    // Paper Listing 3: REPLACE with an empty needle returns the subject
    // unchanged — and the result must be TEXT even for numeric input.
    Value replaced = evalSql("REPLACE(1, '', 0)");
    EXPECT_EQ(replaced.kind(), Value::Kind::Text);
    EXPECT_EQ(replaced.asText(), "1");
    EXPECT_EQ(evalSql("TYPEOF(REPLACE(1, '', 0))").asText(), "text");
}

TEST(FunctionsTest, SubstrAndInstr)
{
    EXPECT_EQ(evalSql("SUBSTR('hello', 2)").asText(), "ello");
    EXPECT_EQ(evalSql("SUBSTR('hello', 2, 3)").asText(), "ell");
    EXPECT_EQ(evalSql("SUBSTR('hello', -2)").asText(), "lo");
    EXPECT_EQ(evalSql("SUBSTR('hello', 99)").asText(), "");
    EXPECT_EQ(evalSql("INSTR('hello', 'll')").asInt(), 3);
    EXPECT_EQ(evalSql("INSTR('hello', 'z')").asInt(), 0);
}

TEST(FunctionsTest, ConcatVariants)
{
    EXPECT_EQ(evalSql("CONCAT('a', 'b', 'c')").asText(), "abc");
    EXPECT_TRUE(evalSql("CONCAT('a', NULL)").isNull());
    EXPECT_EQ(evalSql("CONCAT_WS('-', 'a', NULL, 'b')").asText(), "a-b");
    EXPECT_TRUE(evalSql("CONCAT_WS(NULL, 'a')").isNull());
}

TEST(FunctionsTest, StringGuards)
{
    EXPECT_EQ(evalError("REPEAT('aaaa', 100000)").code(),
              ErrorCode::RuntimeError);
    // Empty text repeats to empty text at once, whatever the count.
    EXPECT_EQ(evalSql("REPEAT('', 9223372036854775807)").asText(), "");
    EXPECT_EQ(evalSql("REPEAT('', 1000000000)").asText(), "");
    // size * count would overflow int64_t here; the guard must still
    // refuse it.
    EXPECT_EQ(evalError("REPEAT('ab', 4611686018427387904)").code(),
              ErrorCode::RuntimeError);
    EXPECT_EQ(evalError("REPEAT('abc', 9223372036854775807)").code(),
              ErrorCode::RuntimeError);
    // The guard's boundary: exactly 65536 characters is allowed.
    EXPECT_EQ(evalSql("LENGTH(REPEAT('ab', 32768))").asInt(), 65536);
    EXPECT_EQ(evalError("REPEAT('ab', 32769)").code(),
              ErrorCode::RuntimeError);
    EXPECT_EQ(evalError("SPACE(9999999)").code(),
              ErrorCode::RuntimeError);
    EXPECT_EQ(evalError("CHR(0)").code(), ErrorCode::RuntimeError);
    EXPECT_TRUE(evalSql("ASCII('')").isNull());
}

TEST(FunctionsTest, NullConditionals)
{
    EXPECT_TRUE(evalSql("NULLIF(2, 2)").isNull());
    EXPECT_EQ(evalSql("NULLIF(2, 3)").asInt(), 2);
    EXPECT_EQ(evalSql("NULLIF(2, NULL)").asInt(), 2);
    EXPECT_EQ(evalSql("COALESCE(NULL, NULL, 7)").asInt(), 7);
    EXPECT_TRUE(evalSql("COALESCE(NULL, NULL)").isNull());
    EXPECT_EQ(evalSql("IFNULL(NULL, 5)").asInt(), 5);
    EXPECT_EQ(evalSql("IFNULL(4, 5)").asInt(), 4);
    EXPECT_EQ(evalSql("NVL(NULL, 'x')").asText(), "x");
    EXPECT_EQ(evalSql("IIF(1 < 2, 'yes', 'no')").asText(), "yes");
    EXPECT_EQ(evalSql("IIF(NULL, 'yes', 'no')").asText(), "no");
    EXPECT_EQ(evalSql("GREATEST(3, 9, 1)").asInt(), 9);
    EXPECT_EQ(evalSql("LEAST(3, 9, 1)").asInt(), 1);
    EXPECT_TRUE(evalSql("GREATEST(3, NULL)").isNull());
    EXPECT_EQ(evalSql("QUOTE('it''s')").asText(), "'it''s'");
    EXPECT_EQ(evalSql("QUOTE(NULL)").asText(), "NULL");
}

TEST(FunctionsTest, Typeof)
{
    EXPECT_EQ(evalSql("TYPEOF(NULL)").asText(), "null");
    EXPECT_EQ(evalSql("TYPEOF(1)").asText(), "integer");
    EXPECT_EQ(evalSql("TYPEOF('x')").asText(), "text");
    EXPECT_EQ(evalSql("TYPEOF(TRUE)").asText(), "boolean");
}

class AggregateTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ASSERT_TRUE(db.execute("CREATE TABLE t0 (c0 INT)").isOk());
        ASSERT_TRUE(db.execute("INSERT INTO t0 VALUES (1), (2), (2), "
                               "(NULL), (5)")
                        .isOk());
    }

    Value
    agg(const std::string &expr)
    {
        auto result = db.execute("SELECT " + expr + " FROM t0");
        EXPECT_TRUE(result.isOk())
            << expr << " -> " << result.status().toString();
        return result.isOk() ? result.value().rows()[0][0] : Value::null();
    }

    Database db;
};

TEST_F(AggregateTest, CountForms)
{
    EXPECT_EQ(agg("COUNT(*)").asInt(), 5);
    EXPECT_EQ(agg("COUNT(c0)").asInt(), 4); // NULL not counted
    EXPECT_EQ(agg("COUNT(DISTINCT c0)").asInt(), 3);
}

TEST_F(AggregateTest, SumAvgMinMax)
{
    EXPECT_EQ(agg("SUM(c0)").asInt(), 10);
    EXPECT_EQ(agg("SUM(DISTINCT c0)").asInt(), 8);
    EXPECT_EQ(agg("AVG(c0)").asInt(), 2); // integer division
    EXPECT_EQ(agg("MIN(c0)").asInt(), 1);
    EXPECT_EQ(agg("MAX(c0)").asInt(), 5);
}

TEST_F(AggregateTest, EmptySetSemantics)
{
    ASSERT_TRUE(db.execute("CREATE TABLE empty (c0 INT)").isOk());
    auto result = db.execute("SELECT SUM(c0), COUNT(*), MIN(c0) "
                             "FROM empty");
    ASSERT_TRUE(result.isOk());
    ASSERT_EQ(result.value().rowCount(), 1u);
    EXPECT_TRUE(result.value().rows()[0][0].isNull());
    EXPECT_EQ(result.value().rows()[0][1].asInt(), 0);
    EXPECT_TRUE(result.value().rows()[0][2].isNull());
}

} // namespace
} // namespace sqlpp

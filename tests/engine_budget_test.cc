/**
 * @file
 * Execution-budget tests: BudgetMeter semantics and the budget checks
 * threaded through the executor's scan/join/sort loops and the
 * recursive evaluator.
 */
#include <gtest/gtest.h>

#include "dialect/connection.h"
#include "engine/budget.h"
#include "engine/database.h"
#include "parser/parser.h"
#include "util/strutil.h"

namespace sqlpp {
namespace {

Database
makeDb(StepBudget budget)
{
    EngineConfig config;
    config.budget = budget;
    return Database(std::move(config));
}

void
fillTable(Database &db, const char *table, size_t rows)
{
    ASSERT_TRUE(
        db.execute(std::string("CREATE TABLE ") + table + " (c0 INT)")
            .isOk());
    std::string insert = std::string("INSERT INTO ") + table + " VALUES ";
    for (size_t i = 0; i < rows; ++i) {
        if (i > 0)
            insert += ", ";
        insert += concat("(", std::to_string(i), ")");
    }
    ASSERT_TRUE(db.execute(insert).isOk());
}

TEST(BudgetMeterTest, ZeroLimitsAreUnlimited)
{
    BudgetMeter meter{StepBudget{0, 0, 0}};
    EXPECT_TRUE(meter.chargeSteps(1u << 20).isOk());
    EXPECT_TRUE(meter.chargeRows(1u << 20).isOk());
    EXPECT_TRUE(meter.chargeIntermediateRows(1u << 20).isOk());
}

TEST(BudgetMeterTest, ExceedingALimitReturnsBudgetExhausted)
{
    BudgetMeter meter{StepBudget{10, 5, 3}};
    EXPECT_TRUE(meter.chargeSteps(10).isOk());
    Status steps = meter.chargeSteps(1);
    EXPECT_EQ(steps.code(), ErrorCode::BudgetExhausted);
    Status rows = meter.chargeRows(6);
    EXPECT_EQ(rows.code(), ErrorCode::BudgetExhausted);
    Status intermediate = meter.chargeIntermediateRows(4);
    EXPECT_EQ(intermediate.code(), ErrorCode::BudgetExhausted);
}

TEST(BudgetTest, CrossJoinTerminatesUnderIntermediateRowBudget)
{
    // 20 x 20 x 20 = 8000 combined rows; the budget cuts the join off
    // after 100 with the distinct resource code, not a generic error.
    Database db = makeDb(StepBudget{0, 0, 100});
    fillTable(db, "t0", 20);
    fillTable(db, "t1", 20);
    fillTable(db, "t2", 20);
    auto result = db.execute("SELECT * FROM t0, t1, t2");
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), ErrorCode::BudgetExhausted);
}

TEST(BudgetTest, StepBudgetBoundsScans)
{
    Database db = makeDb(StepBudget{10, 0, 0});
    fillTable(db, "t0", 30);
    auto result = db.execute("SELECT * FROM t0");
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), ErrorCode::BudgetExhausted);
}

TEST(BudgetTest, RowBudgetBoundsResultSize)
{
    Database db = makeDb(StepBudget{0, 5, 0});
    fillTable(db, "t0", 30);
    auto result = db.execute("SELECT * FROM t0");
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), ErrorCode::BudgetExhausted);
}

TEST(BudgetTest, EvaluatorStepsAreMetered)
{
    // The WHERE expression alone costs several evaluator steps per
    // row; a step budget below rows x nodes must trip inside eval.
    Database db = makeDb(StepBudget{40, 0, 0});
    fillTable(db, "t0", 30);
    auto result = db.execute(
        "SELECT * FROM t0 WHERE c0 + 1 * 2 - 3 > 0 AND c0 < 100");
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), ErrorCode::BudgetExhausted);
}

TEST(BudgetTest, DefaultBudgetPreservesBehaviour)
{
    Database db;
    fillTable(db, "t0", 30);
    fillTable(db, "t1", 30);
    auto result =
        db.execute("SELECT * FROM t0, t1 WHERE t0.c0 = t1.c0");
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_EQ(result.value().rowCount(), 30u);
}

TEST(BudgetTest, ConnectionCountsBudgetFailuresAsResourceErrors)
{
    const DialectProfile *profile = findDialect("sqlite-like");
    ASSERT_NE(profile, nullptr);
    ConnectionOptions options;
    options.budget.maxSteps = 10;
    Connection connection(*profile, options);
    ASSERT_TRUE(
        connection.execute("CREATE TABLE t0 (c0 INT)").isOk());
    ASSERT_TRUE(connection
                    .execute("INSERT INTO t0 VALUES (1), (2), (3), "
                             "(4), (5), (6), (7), (8), (9), (10), "
                             "(11), (12)")
                    .isOk());
    auto result = connection.execute("SELECT * FROM t0");
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), ErrorCode::BudgetExhausted);
    EXPECT_EQ(connection.resourceErrors(), 1u);
}

} // namespace
} // namespace sqlpp

/**
 * @file
 * Bind-step edge cases: column references and function calls are
 * resolved once per node and scope, then read from a slot on every row.
 * These tests pin that the slots give exactly what name resolution on
 * every row gave — the same values, the same error texts, the same
 * innermost-first correlation — including where a node is evaluated
 * under several scopes or re-run for many outer rows.
 */
#include <gtest/gtest.h>

#include <map>

#include "engine/database.h"
#include "engine/executor.h"
#include "parser/parser.h"
#include "util/strutil.h"

namespace sqlpp {
namespace {

void
exec(Database &db, const std::string &sql)
{
    auto result = db.execute(sql);
    ASSERT_TRUE(result.isOk()) << sql << " -> "
                               << result.status().toString();
}

/** Run @p sql in one mode; the rows, or a failed test and no rows. */
std::vector<Row>
rowsOf(Database &db, const std::string &sql,
       ExecMode mode = ExecMode::Optimized)
{
    auto stmt = parseStatement(sql);
    EXPECT_TRUE(stmt.isOk()) << sql;
    if (!stmt.isOk())
        return {};
    auto result = db.executeStmt(*stmt.value(), mode);
    EXPECT_TRUE(result.isOk()) << sql << " -> "
                               << result.status().toString();
    if (!result.isOk())
        return {};
    return result.value().rows();
}

/** The error message @p sql fails with in @p mode ("" if it succeeds). */
std::string
errorOf(Database &db, const std::string &sql, ExecMode mode)
{
    auto stmt = parseStatement(sql);
    EXPECT_TRUE(stmt.isOk()) << sql;
    if (!stmt.isOk())
        return "";
    auto result = db.executeStmt(*stmt.value(), mode);
    EXPECT_FALSE(result.isOk()) << sql;
    return result.isOk() ? "" : result.status().message();
}

class BindTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        exec(db_, "CREATE TABLE t0 (c0 INT, c1 INT, c5 INT)");
        exec(db_, "CREATE TABLE t1 (c0 INT, c1 INT)");
        exec(db_, "CREATE TABLE t2 (c0 INT, c5 INT)");
        exec(db_, "INSERT INTO t0 VALUES (1, 10, 100), (2, 20, 200), "
                  "(3, 30, 300)");
        exec(db_, "INSERT INTO t1 VALUES (1, 11), (2, 22), (2, 23), "
                  "(4, 44)");
        exec(db_, "INSERT INTO t2 VALUES (1, 7), (3, 9)");
    }

    Database db_;
};

TEST_F(BindTest, AmbiguousAndUnknownColumnsKeepTheirErrorText)
{
    for (ExecMode mode : {ExecMode::Optimized, ExecMode::Reference}) {
        EXPECT_EQ(errorOf(db_, "SELECT c0 FROM t0, t1", mode),
                  "ambiguous column name: c0");
        EXPECT_EQ(errorOf(db_, "SELECT t0.c0 FROM t0, t1 WHERE c1 > 0",
                          mode),
                  "ambiguous column name: c1");
        EXPECT_EQ(errorOf(db_, "SELECT * FROM t0 JOIN t1 ON c0 = 1", mode),
                  "ambiguous column name: c0");
        EXPECT_EQ(errorOf(db_, "SELECT c9 FROM t0", mode),
                  "no such column: c9");
        EXPECT_EQ(errorOf(db_, "SELECT t0.c9 FROM t0", mode),
                  "no such column: t0.c9");
        EXPECT_EQ(errorOf(db_, "SELECT t1.c0 FROM t0", mode),
                  "no such column: t1.c0");
        // Unknown inside a correlated subquery: the search walks every
        // frame outward before giving up.
        EXPECT_EQ(errorOf(db_, "SELECT (SELECT zz FROM t1) FROM t0", mode),
                  "no such column: zz");
        // Ambiguous in the inner frame stops the search even though the
        // outer frame has exactly one c0.
        EXPECT_EQ(errorOf(db_,
                          "SELECT (SELECT c0 FROM t1, t2 LIMIT 1) FROM t0",
                          mode),
                  "ambiguous column name: c0");
        // Unknown functions and arity errors are bind errors too.
        EXPECT_EQ(errorOf(db_, "SELECT NO_SUCH_FN(c0) FROM t0", mode),
                  "no such function: NO_SUCH_FN");
        EXPECT_EQ(errorOf(db_, "SELECT ABS(c0, c1) FROM t0", mode),
                  "wrong number of arguments to ABS");
    }
    // An error found on a later row (after earlier rows bound other
    // nodes) is the same error.
    EXPECT_EQ(errorOf(db_,
                      "SELECT CASE WHEN t0.c0 < 3 THEN t0.c1 ELSE c0 END "
                      "FROM t0, t1",
                      ExecMode::Optimized),
              "ambiguous column name: c0");
}

TEST_F(BindTest, InnermostFrameShadowsOuterBinding)
{
    // Inside the subquery, t0 names t1 (alias): the inner binding wins
    // over the outer table of the same name.
    auto rows = rowsOf(db_,
                       "SELECT c0, (SELECT t0.c1 FROM t1 AS t0 "
                       "WHERE t0.c0 = 4) FROM t0");
    ASSERT_EQ(rows.size(), 3u);
    for (const Row &row : rows)
        EXPECT_EQ(row[1].asInt(), 44);

    // Unqualified c1 resolves to the inner t1.c1, and c5 (absent from
    // t1) to the outer row: a correlated reference one frame out.
    rows = rowsOf(db_,
                  "SELECT t0.c0, (SELECT MAX(c1) + c5 FROM t1 "
                  "WHERE t1.c0 <= t0.c0) FROM t0");
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0][1].asInt(), 11 + 100);
    EXPECT_EQ(rows[1][1].asInt(), 23 + 200);
    EXPECT_EQ(rows[2][1].asInt(), 23 + 300);

    // Two frames out: the innermost subquery reads t0.c5 through t2,
    // whose own c5 shadows it for unqualified references.
    rows = rowsOf(db_,
                  "SELECT t0.c0, (SELECT COUNT(*) FROM t2 WHERE EXISTS "
                  "(SELECT 1 FROM t1 WHERE t1.c0 = t2.c0 AND "
                  "c5 < t0.c5)) FROM t0");
    ASSERT_EQ(rows.size(), 3u);
    // t2 rows (1, 7) and (3, 9); only c0 = 1 has a t1 match, and its
    // c5 = 7 is below every t0.c5.
    for (const Row &row : rows)
        EXPECT_EQ(row[1].asInt(), 1);
}

TEST_F(BindTest, SameSubqueryTextAtTwoLevelsBindsToItsOwnFrames)
{
    // The text `SELECT COUNT(*) FROM t1 WHERE t1.c0 = t0.c0` appears at
    // two nesting levels. At the top it correlates with the base table
    // t0; inside the derived select, t0 is an alias of t2.
    const std::string inner = "(SELECT COUNT(*) FROM t1 WHERE t1.c0 = t0.c0)";
    for (ExecMode mode : {ExecMode::Optimized, ExecMode::Reference}) {
        auto rows = rowsOf(db_,
                           "SELECT t0.c0, " + inner +
                               ", (SELECT SUM(" + inner +
                               ") FROM t2 AS t0) FROM t0",
                           mode);
        ASSERT_EQ(rows.size(), 3u);
        // Top level: t1 has one row with c0 = 1, two with 2, none with 3.
        EXPECT_EQ(rows[0][1].asInt(), 1);
        EXPECT_EQ(rows[1][1].asInt(), 2);
        EXPECT_EQ(rows[2][1].asInt(), 0);
        // Nested level: summed over t2.c0 in {1, 3} -> 1 + 0.
        for (const Row &row : rows)
            EXPECT_EQ(row[2].asInt(), 1);
    }

    // An uncorrelated subquery text at two levels: each level's
    // executor caches it under the same text, and both see t1.
    const std::string max = "(SELECT MAX(t1.c1) FROM t1)";
    auto rows = rowsOf(db_, "SELECT " + max + ", (SELECT " + max +
                                " + t2.c5 FROM t2 WHERE t2.c0 = t0.c0) "
                                "FROM t0");
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0][0].asInt(), 44);
    EXPECT_EQ(rows[0][1].asInt(), 44 + 7);
    EXPECT_TRUE(rows[1][1].isNull());
    EXPECT_EQ(rows[2][1].asInt(), 44 + 9);
}

TEST_F(BindTest, PushedConjunctBindsUnderSourceScopeAndFullScope)
{
    // Optimized mode evaluates t1.c1 > 20 against t1's own scope (offset
    // 1 of a two-column row); reference mode evaluates the same
    // predicate against the joined scope (offset 4). Both must read c1.
    const std::string sql =
        "SELECT t0.c0, t1.c1 FROM t0 JOIN t1 ON t0.c0 = t1.c0 "
        "WHERE t1.c1 > 20 AND t0.c5 < 300";
    auto optimized = rowsOf(db_, sql, ExecMode::Optimized);
    auto reference = rowsOf(db_, sql, ExecMode::Reference);
    ASSERT_EQ(optimized.size(), 2u);
    EXPECT_EQ(optimized, reference);
    EXPECT_EQ(optimized[0][1].asInt(), 22);
    EXPECT_EQ(optimized[1][1].asInt(), 23);

    auto stmt = parseStatement(sql);
    ASSERT_TRUE(stmt.isOk());
    ASSERT_TRUE(db_.executeStmt(*stmt.value(), ExecMode::Optimized).isOk());
    EXPECT_NE(db_.lastPlanDescription().find("PFILT(t1,1)"),
              std::string::npos);
    EXPECT_NE(db_.lastPlanDescription().find("PFILT(t0,1)"),
              std::string::npos);

    // An unqualified name that is unique in its source but ambiguous
    // in the full scope is not pushed, and fails the same way in both
    // modes.
    for (ExecMode mode : {ExecMode::Optimized, ExecMode::Reference}) {
        EXPECT_EQ(errorOf(db_,
                          "SELECT t0.c0 FROM t0 JOIN t1 ON t0.c0 = t1.c0 "
                          "WHERE c1 > 0",
                          mode),
                  "ambiguous column name: c1");
    }
}

TEST_F(BindTest, NaturalJoinsRebuiltPerRunBindAfresh)
{
    // The NATURAL JOIN's ON tree is rebuilt for every run of the
    // correlated subquery; the column order of the two NATURAL JOINs
    // differs, so a stale slot would read the wrong column.
    for (ExecMode mode : {ExecMode::Optimized, ExecMode::Reference}) {
        auto rows = rowsOf(db_,
                           "SELECT t0.c0, (SELECT COUNT(*) FROM t1 "
                           "NATURAL JOIN t0 AS x WHERE x.c5 = t0.c5), "
                           "(SELECT COUNT(*) FROM t2 NATURAL JOIN t0 AS y "
                           "WHERE y.c0 = t0.c0) FROM t0",
                           mode);
        ASSERT_EQ(rows.size(), 3u);
        // t1 NATURAL JOIN t0 joins on (c0, c1): no pair matches.
        // t2 NATURAL JOIN t0 joins on (c0, c5): no pair matches either.
        for (const Row &row : rows) {
            EXPECT_EQ(row[1].asInt(), 0);
            EXPECT_EQ(row[2].asInt(), 0);
        }
    }
}

TEST(BindChainTest, ChainedNaturalJoinsBindEachOnTreeAfresh)
{
    // Each NATURAL JOIN builds its ON tree, evaluates it, and frees it
    // before the next join builds one of the same shape, which the
    // allocator may place at the same addresses. The second tree
    // compares b.y with c.y; a slot carried over from the first tree
    // (a.k = b.k) would compare a.k instead and join the wrong rows.
    Database db;
    exec(db, "CREATE TABLE a (k INT, x INT)");
    exec(db, "CREATE TABLE b (k INT, y INT)");
    exec(db, "CREATE TABLE c (y INT, z INT)");
    exec(db, "INSERT INTO a VALUES (1, 10), (2, 20)");
    exec(db, "INSERT INTO b VALUES (1, 2), (2, 1)");
    exec(db, "INSERT INTO c VALUES (1, 100), (2, 200)");
    for (ExecMode mode : {ExecMode::Optimized, ExecMode::Reference}) {
        auto rows = rowsOf(db,
                           "SELECT a.k, c.z FROM a NATURAL JOIN b "
                           "NATURAL JOIN c ORDER BY a.k",
                           mode);
        ASSERT_EQ(rows.size(), 2u);
        EXPECT_EQ(rows[0][0].asInt(), 1);
        EXPECT_EQ(rows[0][1].asInt(), 200);
        EXPECT_EQ(rows[1][0].asInt(), 2);
        EXPECT_EQ(rows[1][1].asInt(), 100);

        // The same chain inside a correlated subquery, re-planned per
        // outer row.
        rows = rowsOf(db,
                      "SELECT x, (SELECT c.z FROM a AS a NATURAL JOIN b "
                      "NATURAL JOIN c WHERE a.x = o.x) FROM a AS o "
                      "ORDER BY x",
                      mode);
        ASSERT_EQ(rows.size(), 2u);
        EXPECT_EQ(rows[0][1].asInt(), 200);
        EXPECT_EQ(rows[1][1].asInt(), 100);
    }
}

TEST(BindRerunTest, RefoldedCorrelatedWhereOverAThousandOuterRows)
{
    // The subquery's WHERE holds constant subtrees that optimized mode
    // folds, and a correlated reference read through the outer frame on
    // every one of 1,000 runs. Every run must read the current outer
    // row: compare with counts computed here.
    Database db;
    exec(db, "CREATE TABLE t0 (c0 INT, c1 INT)");
    exec(db, "CREATE TABLE t1 (c0 INT, c1 INT)");
    std::string insert = "INSERT INTO t0 VALUES ";
    for (int i = 0; i < 1000; ++i) {
        if (i > 0)
            insert += ", ";
        insert += concat("(", std::to_string(i), ", ",
                         std::to_string(i % 7), ")");
    }
    exec(db, insert);
    insert = "INSERT INTO t1 VALUES ";
    std::map<int, int> count_by_c0;
    for (int i = 0; i < 60; ++i) {
        int c0 = (i * 37) % 50;
        int c1 = i % 5;
        if (i > 0)
            insert += ", ";
        insert += concat("(", std::to_string(c0), ", ", std::to_string(c1),
                         ")");
        if (c1 > 1)
            ++count_by_c0[c0];
    }
    exec(db, insert);

    const std::string sql =
        "SELECT t0.c0, (SELECT COUNT(*) FROM t1 WHERE "
        "t1.c0 = t0.c0 % (40 + 10) AND t1.c1 > 3 - 2 AND ABS(t0.c1) >= 0) "
        "FROM t0";
    for (ExecMode mode : {ExecMode::Optimized, ExecMode::Reference}) {
        auto rows = rowsOf(db, sql, mode);
        ASSERT_EQ(rows.size(), 1000u);
        for (const Row &row : rows) {
            int c0 = static_cast<int>(row[0].asInt());
            EXPECT_EQ(row[1].asInt(), count_by_c0[c0 % 50]) << "c0=" << c0;
        }
    }
}

TEST(BindRerunTest, ReusedExecutorStartsEachStatementAfresh)
{
    // One executor runs two statements in turn; the second is parsed
    // after the first is freed, so its nodes may reuse the first's
    // addresses. The per-statement state must not carry over.
    Database db;
    exec(db, "CREATE TABLE t0 (c0 INT, c1 INT)");
    exec(db, "INSERT INTO t0 VALUES (1, 2), (3, 4)");
    EngineBehavior behavior;
    FaultSet faults;
    Executor executor(db.catalog(), behavior, faults, ExecMode::Optimized);
    const char *statements[] = {
        "SELECT c0 FROM t0 WHERE c0 IN (SELECT t0.c1 FROM t0) OR c1 > 3",
        "SELECT c1 FROM t0 WHERE c1 IN (SELECT t0.c0 FROM t0) OR c0 > 2",
    };
    std::vector<std::vector<Row>> results;
    for (const char *sql : statements) {
        auto stmt = parseStatement(sql);
        ASSERT_TRUE(stmt.isOk());
        auto result = executor.runSelect(
            static_cast<const SelectStmt &>(*stmt.value()));
        ASSERT_TRUE(result.isOk()) << result.status().toString();
        results.push_back(result.value().rows());
    }
    ASSERT_EQ(results[0].size(), 1u);
    EXPECT_EQ(results[0][0][0].asInt(), 3);
    ASSERT_EQ(results[1].size(), 1u);
    EXPECT_EQ(results[1][0][0].asInt(), 4);
}

} // namespace
} // namespace sqlpp

/**
 * @file
 * End-to-end Database tests: DDL, DML, joins, grouping, subqueries,
 * views, ordering, and plan descriptions.
 */
#include <gtest/gtest.h>

#include "engine/database.h"

namespace sqlpp {
namespace {

class DatabaseTest : public ::testing::Test
{
  protected:
    ResultSet
    ok(const std::string &sql)
    {
        auto result = db.execute(sql);
        EXPECT_TRUE(result.isOk())
            << sql << " -> " << result.status().toString();
        return result.isOk() ? result.takeValue() : ResultSet();
    }

    Status
    err(const std::string &sql)
    {
        auto result = db.execute(sql);
        EXPECT_FALSE(result.isOk()) << sql;
        return result.isOk() ? Status::ok() : result.status();
    }

    Database db;
};

TEST_F(DatabaseTest, CreateInsertSelectRoundTrip)
{
    ok("CREATE TABLE t0 (c0 INT, c1 TEXT)");
    ok("INSERT INTO t0 VALUES (1, 'a'), (2, 'b')");
    ResultSet result = ok("SELECT * FROM t0");
    EXPECT_EQ(result.rowCount(), 2u);
    EXPECT_EQ(result.columnCount(), 2u);
    EXPECT_EQ(result.columns()[0], "c0");
}

TEST_F(DatabaseTest, CreateTableErrors)
{
    ok("CREATE TABLE t0 (c0 INT)");
    EXPECT_EQ(err("CREATE TABLE t0 (c0 INT)").code(),
              ErrorCode::SemanticError);
    ok("CREATE TABLE IF NOT EXISTS t0 (c0 INT)");
    EXPECT_EQ(err("CREATE TABLE t1 (c0 INT, c0 TEXT)").code(),
              ErrorCode::SemanticError);
}

TEST_F(DatabaseTest, InsertColumnSubsetsDefaultNull)
{
    ok("CREATE TABLE t0 (c0 INT, c1 TEXT)");
    ok("INSERT INTO t0 (c1) VALUES ('only')");
    ResultSet result = ok("SELECT c0, c1 FROM t0");
    EXPECT_TRUE(result.rows()[0][0].isNull());
    EXPECT_EQ(result.rows()[0][1].asText(), "only");
}

TEST_F(DatabaseTest, InsertErrors)
{
    ok("CREATE TABLE t0 (c0 INT)");
    EXPECT_EQ(err("INSERT INTO t9 VALUES (1)").code(),
              ErrorCode::SemanticError);
    EXPECT_EQ(err("INSERT INTO t0 (nope) VALUES (1)").code(),
              ErrorCode::SemanticError);
    EXPECT_EQ(err("INSERT INTO t0 VALUES (1, 2)").code(),
              ErrorCode::SemanticError);
}

TEST_F(DatabaseTest, NotNullConstraint)
{
    ok("CREATE TABLE t0 (c0 INT NOT NULL)");
    EXPECT_EQ(err("INSERT INTO t0 VALUES (NULL)").code(),
              ErrorCode::RuntimeError);
    ok("INSERT OR IGNORE INTO t0 VALUES (NULL), (3)");
    EXPECT_EQ(ok("SELECT * FROM t0").rowCount(), 1u);
}

TEST_F(DatabaseTest, UniqueAndPrimaryKeyConstraints)
{
    ok("CREATE TABLE t0 (c0 INT PRIMARY KEY, c1 INT UNIQUE)");
    ok("INSERT INTO t0 VALUES (1, 10)");
    EXPECT_EQ(err("INSERT INTO t0 VALUES (1, 11)").code(),
              ErrorCode::RuntimeError);
    EXPECT_EQ(err("INSERT INTO t0 VALUES (2, 10)").code(),
              ErrorCode::RuntimeError);
    // NULL never conflicts in UNIQUE columns.
    ok("INSERT INTO t0 VALUES (3, NULL)");
    ok("INSERT INTO t0 VALUES (4, NULL)");
    // PRIMARY KEY implies NOT NULL.
    EXPECT_EQ(err("INSERT INTO t0 VALUES (NULL, 12)").code(),
              ErrorCode::RuntimeError);
}

TEST_F(DatabaseTest, TextAffinityOnIntColumn)
{
    ok("CREATE TABLE t0 (c0 INT)");
    ok("INSERT INTO t0 VALUES ('42'), ('x42')");
    ResultSet result = ok("SELECT TYPEOF(c0) FROM t0 ORDER BY c0 ASC");
    // '42' became an integer; 'x42' stayed text (and text sorts last).
    EXPECT_EQ(result.rows()[0][0].asText(), "integer");
    EXPECT_EQ(result.rows()[1][0].asText(), "text");
}

TEST_F(DatabaseTest, WhereFiltersWithNullExcluded)
{
    ok("CREATE TABLE t0 (c0 INT)");
    ok("INSERT INTO t0 VALUES (1), (2), (NULL)");
    EXPECT_EQ(ok("SELECT * FROM t0 WHERE c0 > 1").rowCount(), 1u);
    // NULL predicate rows are excluded.
    EXPECT_EQ(ok("SELECT * FROM t0 WHERE c0 <> 99").rowCount(), 2u);
}

TEST_F(DatabaseTest, InnerJoin)
{
    ok("CREATE TABLE t0 (a INT)");
    ok("CREATE TABLE t1 (b INT)");
    ok("INSERT INTO t0 VALUES (1), (2)");
    ok("INSERT INTO t1 VALUES (2), (3)");
    ResultSet result = ok(
        "SELECT * FROM t0 INNER JOIN t1 ON t0.a = t1.b");
    ASSERT_EQ(result.rowCount(), 1u);
    EXPECT_EQ(result.rows()[0][0].asInt(), 2);
}

TEST_F(DatabaseTest, LeftJoinNullExtends)
{
    ok("CREATE TABLE t0 (a INT)");
    ok("CREATE TABLE t1 (b INT)");
    ok("INSERT INTO t0 VALUES (1), (2)");
    ok("INSERT INTO t1 VALUES (2)");
    ResultSet result =
        ok("SELECT * FROM t0 LEFT JOIN t1 ON t0.a = t1.b "
           "ORDER BY t0.a ASC");
    ASSERT_EQ(result.rowCount(), 2u);
    EXPECT_TRUE(result.rows()[0][1].isNull()); // a=1 unmatched
    EXPECT_EQ(result.rows()[1][1].asInt(), 2);
}

TEST_F(DatabaseTest, RightAndFullJoin)
{
    ok("CREATE TABLE t0 (a INT)");
    ok("CREATE TABLE t1 (b INT)");
    ok("INSERT INTO t0 VALUES (1)");
    ok("INSERT INTO t1 VALUES (1), (9)");
    EXPECT_EQ(ok("SELECT * FROM t0 RIGHT JOIN t1 ON t0.a = t1.b")
                  .rowCount(),
              2u);
    ok("INSERT INTO t0 VALUES (5)");
    // FULL: 1 match + t0's 5 + t1's 9.
    EXPECT_EQ(ok("SELECT * FROM t0 FULL JOIN t1 ON t0.a = t1.b")
                  .rowCount(),
              3u);
}

TEST_F(DatabaseTest, CrossAndCommaJoin)
{
    ok("CREATE TABLE t0 (a INT)");
    ok("CREATE TABLE t1 (b INT)");
    ok("INSERT INTO t0 VALUES (1), (2)");
    ok("INSERT INTO t1 VALUES (10), (20), (30)");
    EXPECT_EQ(ok("SELECT * FROM t0 CROSS JOIN t1").rowCount(), 6u);
    EXPECT_EQ(ok("SELECT * FROM t0, t1").rowCount(), 6u);
}

TEST_F(DatabaseTest, NaturalJoinUsesCommonColumns)
{
    ok("CREATE TABLE t0 (id INT, x INT)");
    ok("CREATE TABLE t1 (id INT, y INT)");
    ok("INSERT INTO t0 VALUES (1, 100), (2, 200)");
    ok("INSERT INTO t1 VALUES (2, 999)");
    ResultSet result = ok("SELECT * FROM t0 NATURAL JOIN t1");
    ASSERT_EQ(result.rowCount(), 1u);
    EXPECT_EQ(result.rows()[0][0].asInt(), 2);
}

TEST_F(DatabaseTest, MixedCommaAndJoinRejected)
{
    ok("CREATE TABLE t0 (a INT)");
    ok("CREATE TABLE t1 (b INT)");
    ok("CREATE TABLE t2 (c INT)");
    EXPECT_EQ(
        err("SELECT * FROM t0, t1 INNER JOIN t2 ON 1").code(),
        ErrorCode::SemanticError);
}

TEST_F(DatabaseTest, DuplicateBindingRejected)
{
    ok("CREATE TABLE t0 (a INT)");
    EXPECT_EQ(err("SELECT * FROM t0, t0").code(),
              ErrorCode::SemanticError);
    // Aliases disambiguate.
    ok("SELECT * FROM t0, t0 AS other");
}

TEST_F(DatabaseTest, GroupByHaving)
{
    ok("CREATE TABLE t0 (k INT, v INT)");
    ok("INSERT INTO t0 VALUES (1, 10), (1, 20), (2, 5), (NULL, 1), "
       "(NULL, 2)");
    ResultSet result = ok(
        "SELECT k, COUNT(*), SUM(v) FROM t0 GROUP BY k "
        "ORDER BY k ASC");
    ASSERT_EQ(result.rowCount(), 3u); // NULLs form one group
    EXPECT_TRUE(result.rows()[0][0].isNull());
    EXPECT_EQ(result.rows()[0][1].asInt(), 2);
    EXPECT_EQ(result.rows()[1][2].asInt(), 30);

    ResultSet filtered = ok(
        "SELECT k FROM t0 GROUP BY k HAVING COUNT(*) > 1 "
        "ORDER BY k ASC");
    EXPECT_EQ(filtered.rowCount(), 2u);
}

TEST_F(DatabaseTest, GlobalAggregateOnEmptyInput)
{
    ok("CREATE TABLE t0 (c0 INT)");
    ResultSet result = ok("SELECT COUNT(*) FROM t0");
    ASSERT_EQ(result.rowCount(), 1u);
    EXPECT_EQ(result.rows()[0][0].asInt(), 0);
}

TEST_F(DatabaseTest, HavingWithoutGroupingRejected)
{
    ok("CREATE TABLE t0 (c0 INT)");
    EXPECT_EQ(err("SELECT c0 FROM t0 HAVING c0 > 1").code(),
              ErrorCode::SemanticError);
}

TEST_F(DatabaseTest, DistinctDedupes)
{
    ok("CREATE TABLE t0 (c0 INT)");
    ok("INSERT INTO t0 VALUES (1), (1), (2), (NULL), (NULL)");
    EXPECT_EQ(ok("SELECT DISTINCT c0 FROM t0").rowCount(), 3u);
}

TEST_F(DatabaseTest, DistinctAndGroupByKeepRowsSplitAtUnitSeparator)
{
    // Two different rows whose cells, joined by CHR(31), spell the same
    // string: row identity must not rest on any such encoding.
    ok("CREATE TABLE t0 (c0 TEXT, c1 TEXT)");
    ok("INSERT INTO t0 VALUES ('a' || CHR(31) || 'tb', 'c'), "
       "('a', 'b' || CHR(31) || 'tc')");
    for (bool reference : {false, true}) {
        auto run = [&](const std::string &sql) {
            auto result =
                reference ? db.executeReference(sql) : db.execute(sql);
            EXPECT_TRUE(result.isOk())
                << sql << " -> " << result.status().toString();
            return result.isOk() ? result.takeValue() : ResultSet();
        };
        EXPECT_EQ(run("SELECT DISTINCT c0, c1 FROM t0").rowCount(), 2u)
            << (reference ? "reference" : "optimized");
        ResultSet groups = run("SELECT COUNT(*) FROM t0 GROUP BY c0, c1");
        ASSERT_EQ(groups.rowCount(), 2u)
            << (reference ? "reference" : "optimized");
        EXPECT_EQ(groups.rows()[0][0].asInt(), 1);
        EXPECT_EQ(groups.rows()[1][0].asInt(), 1);
    }
}

TEST_F(DatabaseTest, OrderByNullsFirstAndDesc)
{
    ok("CREATE TABLE t0 (c0 INT)");
    ok("INSERT INTO t0 VALUES (2), (NULL), (1)");
    ResultSet asc = ok("SELECT c0 FROM t0 ORDER BY c0 ASC");
    EXPECT_TRUE(asc.rows()[0][0].isNull());
    EXPECT_EQ(asc.rows()[1][0].asInt(), 1);
    ResultSet desc = ok("SELECT c0 FROM t0 ORDER BY c0 DESC");
    EXPECT_EQ(desc.rows()[0][0].asInt(), 2);
    EXPECT_TRUE(desc.rows()[2][0].isNull());
}

TEST_F(DatabaseTest, LimitOffset)
{
    ok("CREATE TABLE t0 (c0 INT)");
    ok("INSERT INTO t0 VALUES (1), (2), (3), (4), (5)");
    ResultSet page =
        ok("SELECT c0 FROM t0 ORDER BY c0 ASC LIMIT 2 OFFSET 1");
    ASSERT_EQ(page.rowCount(), 2u);
    EXPECT_EQ(page.rows()[0][0].asInt(), 2);
    EXPECT_EQ(page.rows()[1][0].asInt(), 3);
    EXPECT_EQ(ok("SELECT c0 FROM t0 LIMIT 0").rowCount(), 0u);
    EXPECT_EQ(ok("SELECT c0 FROM t0 OFFSET 99").rowCount(), 0u);
}

TEST_F(DatabaseTest, ViewsExpandAndRename)
{
    ok("CREATE TABLE t0 (c0 INT)");
    ok("INSERT INTO t0 VALUES (1), (2)");
    ok("CREATE VIEW v0(renamed) AS SELECT c0 + 10 FROM t0");
    ResultSet result = ok("SELECT renamed FROM v0 ORDER BY renamed ASC");
    ASSERT_EQ(result.rowCount(), 2u);
    EXPECT_EQ(result.rows()[0][0].asInt(), 11);
    // Arity mismatch rejected at creation.
    EXPECT_EQ(err("CREATE VIEW v1(a, b) AS SELECT c0 FROM t0").code(),
              ErrorCode::SemanticError);
    // Inserting into a view fails.
    EXPECT_EQ(err("INSERT INTO v0 VALUES (1)").code(),
              ErrorCode::SemanticError);
}

TEST_F(DatabaseTest, ViewOverDroppedTableErrorsAtUse)
{
    ok("CREATE TABLE t0 (c0 INT)");
    ok("CREATE VIEW v0 AS SELECT * FROM t0");
    ok("DROP TABLE t0");
    EXPECT_EQ(err("SELECT * FROM v0").code(), ErrorCode::SemanticError);
}

TEST_F(DatabaseTest, DerivedTables)
{
    ok("CREATE TABLE t0 (c0 INT)");
    ok("INSERT INTO t0 VALUES (1), (2), (3)");
    ResultSet result = ok(
        "SELECT s.double FROM (SELECT c0 * 2 AS double FROM t0) AS s "
        "WHERE s.double > 2 ORDER BY s.double ASC");
    ASSERT_EQ(result.rowCount(), 2u);
    EXPECT_EQ(result.rows()[0][0].asInt(), 4);
}

/** A result with @p columns columns holding @p rows, for comparisons. */
ResultSet
expectedRows(size_t columns, const std::vector<Row> &rows)
{
    ResultSet out(std::vector<std::string>(columns, "c"));
    for (const Row &row : rows)
        out.addRow(row);
    return out;
}

TEST_F(DatabaseTest, EmptyResultKeepsItsColumns)
{
    ok("CREATE TABLE t0 (c0 INT, c1 TEXT)");
    ok("INSERT INTO t0 VALUES (1, 'a'), (2, 'b')");
    const std::pair<const char *, size_t> cases[] = {
        {"SELECT * FROM t0 WHERE c0 > 5", 2},
        {"SELECT c1, c0, c0 FROM t0 WHERE c0 IS NULL", 3},
        {"SELECT DISTINCT c0, c1 FROM t0 WHERE c0 > 5 ORDER BY c0 ASC", 2},
        {"SELECT c0 FROM t0 LIMIT 0", 1},
        {"SELECT c0 FROM t0 ORDER BY c0 ASC OFFSET 9", 1},
        {"SELECT * FROM (SELECT c0, c1 FROM t0 WHERE c0 > 5) AS s", 2},
        {"SELECT c0, COUNT(*) FROM t0 WHERE c0 > 5 GROUP BY c0", 2},
    };
    for (bool reference : {false, true}) {
        for (const auto &[sql, columns] : cases) {
            auto result =
                reference ? db.executeReference(sql) : db.execute(sql);
            ASSERT_TRUE(result.isOk())
                << sql << " -> " << result.status().toString();
            EXPECT_EQ(result.value().rowCount(), 0u) << sql;
            EXPECT_EQ(result.value().rows().size(), 0u) << sql;
            EXPECT_EQ(result.value().columnCount(), columns) << sql;
        }
    }
}

TEST_F(DatabaseTest, StarReadsANullExtendedPartAsNulls)
{
    ok("CREATE TABLE t0 (a INT, b TEXT)");
    ok("CREATE TABLE t1 (c INT, d TEXT, e BOOLEAN)");
    ok("INSERT INTO t0 VALUES (1, 'x'), (2, 'y')");
    ok("INSERT INTO t1 VALUES (2, 'z', TRUE), (7, 'w', FALSE)");
    const Value null;
    ResultSet left = expectedRows(
        6, {{Value::integer(1), Value::text("x"), null, null, null,
             Value::integer(1)},
            {Value::integer(2), Value::text("y"), Value::integer(2),
             Value::text("z"), Value::boolean(true), Value::integer(2)}});
    ResultSet right = expectedRows(
        5, {{Value::integer(2), Value::text("y"), Value::integer(2),
             Value::text("z"), Value::boolean(true)},
            {null, null, Value::integer(7), Value::text("w"),
             Value::boolean(false)}});
    for (bool reference : {false, true}) {
        auto run = [&](const std::string &sql) {
            auto result =
                reference ? db.executeReference(sql) : db.execute(sql);
            EXPECT_TRUE(result.isOk())
                << sql << " -> " << result.status().toString();
            return result.isOk() ? result.takeValue() : ResultSet();
        };
        ResultSet got = run("SELECT *, t0.a FROM t0 LEFT JOIN t1 "
                            "ON t0.a = t1.c ORDER BY t0.a ASC");
        EXPECT_EQ(got.columnCount(), 6u);
        EXPECT_TRUE(got.rows() == left.rows()) << got.toString();
        got = run("SELECT * FROM t0 RIGHT JOIN t1 ON t0.a = t1.c "
                  "ORDER BY t1.c ASC");
        EXPECT_EQ(got.columnCount(), 5u);
        EXPECT_TRUE(got.rows() == right.rows()) << got.toString();
    }
}

TEST_F(DatabaseTest, DerivedTableAndViewSourcesFilterAndJoin)
{
    ok("CREATE TABLE t0 (c0 INT, c1 TEXT)");
    ok("INSERT INTO t0 VALUES (1, 'a'), (2, 'b'), (3, NULL)");
    ok("CREATE VIEW v0 AS SELECT c1, c0 * 10 AS c2 FROM t0");
    const Value null;
    const std::pair<const char *, ResultSet> cases[] = {
        {"SELECT * FROM (SELECT c1, c0 FROM t0) AS s WHERE s.c0 >= 2 "
         "ORDER BY s.c0 ASC",
         expectedRows(2, {{Value::text("b"), Value::integer(2)},
                          {null, Value::integer(3)}})},
        {"SELECT * FROM v0 WHERE v0.c2 < 30 ORDER BY v0.c2 DESC",
         expectedRows(2, {{Value::text("b"), Value::integer(20)},
                          {Value::text("a"), Value::integer(10)}})},
        {"SELECT s.c0, v0.c2, v0.c1 FROM (SELECT c0, c1 FROM t0 "
         "WHERE c0 <> 2) AS s JOIN v0 ON s.c1 = v0.c1 WHERE v0.c2 > 5",
         expectedRows(3, {{Value::integer(1), Value::integer(10),
                           Value::text("a")}})},
        {"SELECT * FROM (SELECT c0, c1 FROM t0) AS s LEFT JOIN v0 "
         "ON s.c0 * 10 = v0.c2 + 10 "
         "WHERE s.c1 IS NOT NULL OR v0.c1 IS NULL ORDER BY s.c0 ASC",
         expectedRows(4, {{Value::integer(1), Value::text("a"), null,
                           null},
                          {Value::integer(2), Value::text("b"),
                           Value::text("a"), Value::integer(10)}})},
    };
    for (bool reference : {false, true}) {
        for (const auto &[sql, expected] : cases) {
            auto result =
                reference ? db.executeReference(sql) : db.execute(sql);
            ASSERT_TRUE(result.isOk())
                << sql << " -> " << result.status().toString();
            EXPECT_EQ(result.value().columnCount(),
                      expected.columnCount())
                << sql;
            EXPECT_TRUE(result.value().rows() == expected.rows())
                << sql << (reference ? " (reference)\n" : "\n")
                << result.value().toString();
        }
    }
}

TEST_F(DatabaseTest, ScalarSubquery)
{
    ok("CREATE TABLE t0 (c0 INT)");
    ok("INSERT INTO t0 VALUES (5)");
    EXPECT_EQ(ok("SELECT (SELECT MAX(c0) FROM t0)").rows()[0][0].asInt(),
              5);
    // Empty subquery -> NULL; multi-row -> runtime error.
    ok("CREATE TABLE empty (c0 INT)");
    EXPECT_TRUE(
        ok("SELECT (SELECT c0 FROM empty)").rows()[0][0].isNull());
    ok("INSERT INTO t0 VALUES (6)");
    EXPECT_EQ(err("SELECT (SELECT c0 FROM t0)").code(),
              ErrorCode::RuntimeError);
}

TEST_F(DatabaseTest, ExistsAndInSubqueries)
{
    ok("CREATE TABLE t0 (c0 INT)");
    ok("CREATE TABLE t1 (c0 INT)");
    ok("INSERT INTO t0 VALUES (1), (2), (3)");
    ok("INSERT INTO t1 VALUES (2), (NULL)");
    EXPECT_EQ(ok("SELECT * FROM t0 WHERE EXISTS (SELECT 1 FROM t1)")
                  .rowCount(),
              3u);
    EXPECT_EQ(
        ok("SELECT * FROM t0 WHERE c0 IN (SELECT c0 FROM t1)")
            .rowCount(),
        1u);
    // NOT IN with NULL in the subquery matches nothing.
    EXPECT_EQ(
        ok("SELECT * FROM t0 WHERE c0 NOT IN (SELECT c0 FROM t1)")
            .rowCount(),
        0u);
}

TEST_F(DatabaseTest, CorrelatedSubquery)
{
    ok("CREATE TABLE t0 (c0 INT)");
    ok("CREATE TABLE t1 (c0 INT)");
    ok("INSERT INTO t0 VALUES (1), (2), (3)");
    ok("INSERT INTO t1 VALUES (2), (3), (3)");
    ResultSet result = ok(
        "SELECT c0 FROM t0 WHERE EXISTS "
        "(SELECT 1 FROM t1 WHERE t1.c0 = t0.c0) ORDER BY c0 ASC");
    ASSERT_EQ(result.rowCount(), 2u);
    EXPECT_EQ(result.rows()[0][0].asInt(), 2);
}

TEST_F(DatabaseTest, AnalyzeComputesStats)
{
    ok("CREATE TABLE t0 (c0 INT)");
    ok("INSERT INTO t0 VALUES (1), (1), (NULL)");
    ok("ANALYZE t0");
    const StoredTable *table = db.catalog().table("t0");
    ASSERT_NE(table, nullptr);
    ASSERT_TRUE(table->analyzed);
    EXPECT_EQ(table->stats[0].distinctValues, 1u);
    EXPECT_EQ(table->stats[0].nullCount, 1u);
    ok("ANALYZE");
    EXPECT_EQ(err("ANALYZE missing").code(), ErrorCode::SemanticError);
}

TEST_F(DatabaseTest, DropStatements)
{
    ok("CREATE TABLE t0 (c0 INT)");
    ok("CREATE INDEX i0 ON t0(c0)");
    ok("CREATE VIEW v0 AS SELECT * FROM t0");
    ok("DROP VIEW v0");
    ok("DROP INDEX i0");
    ok("DROP TABLE t0");
    EXPECT_EQ(err("DROP TABLE t0").code(), ErrorCode::SemanticError);
    ok("DROP TABLE IF EXISTS t0");
}

TEST_F(DatabaseTest, IndexScansMatchFullScans)
{
    ok("CREATE TABLE t0 (c0 INT, c1 INT)");
    ok("INSERT INTO t0 VALUES (1, 1), (2, 2), (3, 3), (NULL, 4), (3, 5)");
    // Results before and after index creation must agree.
    ResultSet before = ok("SELECT * FROM t0 WHERE c0 > 1");
    ok("CREATE INDEX i0 ON t0(c0)");
    ResultSet after = ok("SELECT * FROM t0 WHERE c0 > 1");
    EXPECT_TRUE(before.sameRowMultiset(after));
    // Plan confirms the index is actually used.
    EXPECT_NE(db.lastPlanDescription().find("IDX(t0,i0,GT)"),
              std::string::npos);

    ResultSet eq = ok("SELECT * FROM t0 WHERE c0 = 3");
    EXPECT_EQ(eq.rowCount(), 2u);
    ResultSet is_null = ok("SELECT * FROM t0 WHERE c0 IS NULL");
    EXPECT_EQ(is_null.rowCount(), 1u);
    EXPECT_NE(db.lastPlanDescription().find("NULL"), std::string::npos);
}

TEST_F(DatabaseTest, UniqueIndexCreationFailsOnDuplicates)
{
    ok("CREATE TABLE t0 (c0 INT)");
    ok("INSERT INTO t0 VALUES (1), (1)");
    EXPECT_EQ(err("CREATE UNIQUE INDEX i0 ON t0(c0)").code(),
              ErrorCode::RuntimeError);
}

TEST_F(DatabaseTest, PartialIndexOnlyUsedWhenImplied)
{
    ok("CREATE TABLE t0 (c0 INT)");
    ok("INSERT INTO t0 VALUES (1), (2), (NULL)");
    ok("CREATE INDEX i0 ON t0(c0) WHERE (c0 IS NOT NULL)");
    // Query without the implying conjunct: full scan.
    ok("SELECT * FROM t0 WHERE c0 = 1");
    EXPECT_EQ(db.lastPlanDescription().find("IDX"), std::string::npos);
    // With the matching conjunct the partial index applies.
    ResultSet result = ok(
        "SELECT * FROM t0 WHERE c0 = 1 AND (c0 IS NOT NULL)");
    EXPECT_EQ(result.rowCount(), 1u);
    EXPECT_NE(db.lastPlanDescription().find("IDX(t0,i0,EQ)"),
              std::string::npos);
}

TEST_F(DatabaseTest, HashJoinChosenForEquiJoin)
{
    ok("CREATE TABLE t0 (a INT)");
    ok("CREATE TABLE t1 (b INT)");
    ok("INSERT INTO t0 VALUES (1), (2), (NULL)");
    ok("INSERT INTO t1 VALUES (2), (NULL)");
    ResultSet result = ok(
        "SELECT * FROM t0 INNER JOIN t1 ON t0.a = t1.b");
    EXPECT_EQ(result.rowCount(), 1u); // NULL keys never match
    EXPECT_NE(db.lastPlanDescription().find("HASHJ"), std::string::npos);
}

TEST_F(DatabaseTest, OptimizedMatchesReference)
{
    ok("CREATE TABLE t0 (c0 INT, c1 TEXT)");
    ok("CREATE TABLE t1 (c0 INT)");
    ok("INSERT INTO t0 VALUES (1, 'a'), (2, 'b'), (NULL, 'c')");
    ok("INSERT INTO t1 VALUES (2), (3), (NULL)");
    ok("CREATE INDEX i0 ON t0(c0)");
    const char *queries[] = {
        "SELECT * FROM t0 WHERE c0 > 1",
        "SELECT * FROM t0 WHERE c0 = 2 AND c1 <> 'z'",
        "SELECT * FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0 "
        "WHERE t0.c1 LIKE '%'",
        "SELECT * FROM t0 RIGHT JOIN t1 ON t0.c0 = t1.c0",
        "SELECT COUNT(*) FROM t0 WHERE c0 IS NULL",
        "SELECT DISTINCT c1 FROM t0 WHERE NULLIF(1, 1) IS NULL",
    };
    for (const char *sql : queries) {
        auto optimized = db.execute(sql);
        auto reference = db.executeReference(sql);
        ASSERT_TRUE(optimized.isOk()) << sql;
        ASSERT_TRUE(reference.isOk()) << sql;
        EXPECT_TRUE(
            optimized.value().sameRowMultiset(reference.value()))
            << sql;
    }
}

TEST_F(DatabaseTest, PlanFingerprintsDistinguishShapes)
{
    ok("CREATE TABLE t0 (c0 INT)");
    ok("INSERT INTO t0 VALUES (1)");
    ok("SELECT * FROM t0");
    uint64_t scan = db.lastPlanFingerprint();
    ok("SELECT * FROM t0 ORDER BY c0 ASC");
    uint64_t sorted = db.lastPlanFingerprint();
    EXPECT_NE(scan, sorted);
    ok("SELECT * FROM t0");
    EXPECT_EQ(db.lastPlanFingerprint(), scan); // stable
}

TEST_F(DatabaseTest, SelectStarWithoutFromRejected)
{
    EXPECT_EQ(err("SELECT *").code(), ErrorCode::SemanticError);
}

TEST_F(DatabaseTest, AmbiguousColumnRejected)
{
    ok("CREATE TABLE t0 (c0 INT)");
    ok("CREATE TABLE t1 (c0 INT)");
    ok("INSERT INTO t0 VALUES (1)");
    ok("INSERT INTO t1 VALUES (1)");
    EXPECT_EQ(err("SELECT c0 FROM t0, t1").code(),
              ErrorCode::SemanticError);
}

} // namespace
} // namespace sqlpp

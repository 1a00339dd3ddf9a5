/**
 * @file
 * Executor charge golden: pins what the row pipeline charges and plans
 * for a fixed set of statements.
 *
 * Each statement runs once per execution mode against a small fixed
 * database, with an unlimited meter. The rendering records the meter's
 * steps/rows/intermediate-row totals, the result's multiset fingerprint
 * and the plan description. Campaign digests, plan fingerprints and
 * budget cuts all derive from these figures, so an executor change that
 * only claims to be faster must leave the golden byte-identical. A
 * second table pins where a tight step budget cuts each statement off,
 * which pins the order of the charges, not only their sums.
 *
 * A third golden, executor_rows.txt, pins the result rows themselves,
 * in output order, for the same statements plus a set of join, grouping
 * and correlation shapes. It is what holds a change to how the executor
 * stores intermediate rows to the same rows in the same order.
 *
 * Rerun with SQLPP_UPDATE_GOLDEN=1 to regenerate after a deliberate
 * semantic change.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/executor.h"
#include "parser/parser.h"
#include "util/strutil.h"

namespace sqlpp {
namespace {

const char *const kSetup[] = {
    "CREATE TABLE t0 (c0 INT, c1 TEXT, c2 INT)",
    "INSERT INTO t0 VALUES (1, 'a', 1), (2, 'b', NULL), (3, 'c', 3), "
    "(3, NULL, 2), (4, 'd', 4), (NULL, 'e', 1), (5, 'f', 5), "
    "(6, 'g', NULL), (7, 'h', 2), (8, 'i', 3), (9, 'j', 1), (0, 'k', 0)",
    "CREATE TABLE t1 (c0 INT, c3 INT)",
    "INSERT INTO t1 VALUES (1, 10), (3, 4), (3, NULL), (5, 2), "
    "(NULL, 7), (9, 1), (11, 3), (4, 0)",
    "CREATE INDEX i0 ON t0(c0)",
    "CREATE VIEW v0 AS SELECT c0, c2 FROM t0 WHERE c2 > 1",
};

const char *const kStatements[] = {
    // Correlated scalar subquery, run once per outer row.
    "SELECT c0, (SELECT COUNT(*) FROM t1 WHERE t1.c0 = t0.c0) FROM t0",
    // Two textually identical uncorrelated subqueries: one execution.
    "SELECT c0 FROM t0 WHERE c0 IN (SELECT t1.c0 FROM t1) "
    "OR c2 IN (SELECT t1.c0 FROM t1)",
    // Correlated EXISTS whose body holds an uncorrelated subquery.
    "SELECT c0 FROM t0 WHERE EXISTS (SELECT 1 FROM t1 WHERE "
    "t1.c0 = t0.c0 AND t1.c3 IN (SELECT t1.c3 FROM t1))",
    // Derived table.
    "SELECT d.x FROM (SELECT c0 + 1 AS x FROM t0) AS d WHERE d.x > 3",
    // View.
    "SELECT * FROM v0 WHERE c0 < 5",
    // NATURAL JOIN.
    "SELECT * FROM t0 NATURAL JOIN t1",
    // Hash join (INNER, col = col).
    "SELECT t0.c0, t1.c3 FROM t0 JOIN t1 ON t0.c0 = t1.c0",
    // Nested-loop LEFT / RIGHT / FULL.
    "SELECT * FROM t0 LEFT JOIN t1 ON t0.c0 < t1.c0",
    "SELECT * FROM t0 RIGHT JOIN t1 ON t0.c2 = t1.c3 + 1",
    "SELECT t0.c1, t1.c3 FROM t0 FULL JOIN t1 ON t0.c0 = t1.c0",
    // Index probe plus a residual pushed conjunct.
    "SELECT c1 FROM t0 WHERE c0 = 3 AND c2 IS NOT NULL",
    // Pushed filters on both sides of a comma join, residue after it.
    "SELECT t0.c0, t1.c3 FROM t0, t1 WHERE t0.c2 > 2 AND t1.c3 < 5 "
    "AND t0.c0 = t1.c0",
    // GROUP BY / HAVING with ORDER BY and LIMIT/OFFSET.
    "SELECT c2, COUNT(*), SUM(c0) FROM t0 GROUP BY c2 "
    "HAVING COUNT(*) > 0 ORDER BY c2 DESC LIMIT 3 OFFSET 1",
    // DISTINCT with ORDER BY over a join.
    "SELECT DISTINCT t1.c3 FROM t0 JOIN t1 ON t0.c0 = t1.c0 "
    "ORDER BY t1.c3",
};

/**
 * Extra tables for the rows golden only, so the charges golden keeps its
 * catalog: t2 is small, t3 is empty, and t4 shares c3 with t1 for a
 * NATURAL JOIN chain.
 */
const char *const kRowsSetup[] = {
    "CREATE TABLE t2 (c4 INT, c5 TEXT)",
    "INSERT INTO t2 VALUES (3, 'x'), (NULL, 'y'), (10, NULL)",
    "CREATE TABLE t3 (c6 INT, c7 TEXT)",
    "CREATE TABLE t4 (c3 INT, c8 TEXT)",
    "INSERT INTO t4 VALUES (4, 'p'), (NULL, 'q'), (10, 'r'), (2, 's'), "
    "(4, 't')",
};

/** Shapes the rows golden covers beyond kStatements. */
const char *const kRowsStatements[] = {
    // LEFT hash join with unmatched left rows.
    "SELECT t0.c0, t0.c1, t1.c3 FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0",
    // A join, then a comma cross product (rejected), and the same shape
    // spelled as a CROSS JOIN.
    "SELECT t0.c0, t1.c3, t2.c5 FROM t0 JOIN t1 ON t0.c0 = t1.c0, t2",
    "SELECT t0.c0, t1.c3, t2.c5 FROM t0 JOIN t1 ON t0.c0 = t1.c0 "
    "CROSS JOIN t2",
    // SELECT * over three tables: a comma product and a join chain.
    "SELECT * FROM t1, t2, t2 AS u",
    "SELECT * FROM t0 JOIN t1 ON t0.c0 = t1.c0 LEFT JOIN t2 "
    "ON t1.c3 = t2.c4",
    // FROM-less SELECT, with and without a passing WHERE.
    "SELECT 1, 'x', NULL",
    "SELECT 2 WHERE 1 = 0",
    // Aggregates over an empty table, with and without GROUP BY.
    "SELECT COUNT(*), SUM(c6), MAX(c7) FROM t3",
    "SELECT c6, COUNT(*) FROM t3 GROUP BY c6",
    // GROUP BY over a join.
    "SELECT t1.c3, COUNT(*), MIN(t0.c1), SUM(t0.c2) FROM t0 JOIN t1 "
    "ON t0.c0 = t1.c0 GROUP BY t1.c3",
    // Correlated subqueries reading an outer row of a joined relation.
    "SELECT t0.c0, t1.c3, (SELECT COUNT(*) FROM t2 WHERE t2.c4 > t1.c3 "
    "AND t2.c4 < t0.c2 + 8) FROM t0 JOIN t1 ON t0.c0 = t1.c0",
    "SELECT t0.c1, t1.c3 FROM t0 LEFT JOIN t1 ON t0.c2 = t1.c0 "
    "WHERE EXISTS (SELECT 1 FROM t2 WHERE t2.c4 = t1.c0 OR t2.c4 = t0.c0)",
    // A 3-way join whose second hash key sits in the first binding.
    "SELECT t0.c0, t0.c1, t1.c3, t2.c5 FROM t0 JOIN t1 ON t0.c0 = t1.c0 "
    "JOIN t2 ON t0.c0 = t2.c4",
    // A RIGHT JOIN after an inner join: unmatched right rows extend the
    // whole two-binding left side with NULLs.
    "SELECT * FROM t0 JOIN t1 ON t0.c0 = t1.c0 RIGHT JOIN t2 "
    "ON t1.c3 + 6 = t2.c4",
    // A FULL JOIN after an inner join.
    "SELECT t0.c1, t1.c3, t2.c4, t2.c5 FROM t0 JOIN t1 ON t0.c0 = t1.c0 "
    "FULL JOIN t2 ON t1.c0 = t2.c4",
    // Three tables chained by NATURAL JOIN, every column projected.
    "SELECT * FROM t0 NATURAL JOIN t1 NATURAL JOIN t4",
    // Aggregates over the NULL-extended side of a LEFT join.
    "SELECT t0.c2, COUNT(*), COUNT(t1.c3), SUM(t1.c3), MAX(t1.c0) "
    "FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0 GROUP BY t0.c2",
    // ORDER BY a NULL-extended column.
    "SELECT t0.c0, t1.c3 FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0 "
    "ORDER BY t1.c3 DESC, t0.c0",
    // A correlated subquery in an ON clause, reading both sides.
    "SELECT t0.c0, t1.c0, t1.c3 FROM t0 LEFT JOIN t1 ON t1.c0 = "
    "(SELECT MIN(t2.c4) FROM t2 WHERE t2.c4 + t1.c3 > t0.c0)",
};

/** Step limits the cut table tries for every statement. */
const uint64_t kStepCuts[] = {7, 40, 150};

void
setUp(Database &db)
{
    for (const char *sql : kSetup)
        ASSERT_TRUE(db.execute(sql).isOk()) << sql;
}

std::string
runOne(const Catalog &catalog, const SelectStmt &select, ExecMode mode,
       const StepBudget &limits)
{
    EngineBehavior behavior;
    FaultSet faults;
    BudgetMeter meter(limits);
    Executor executor(catalog, behavior, faults, mode, &meter);
    auto result = executor.runSelect(select);
    std::string outcome =
        result.isOk()
            ? format("ok rows=%zu fp=%016llx", result.value().rowCount(),
                     static_cast<unsigned long long>(
                         result.value().multisetFingerprint()))
            : result.status().toString();
    return format("%s steps=%llu rows=%llu irows=%llu %s\n  plan %s\n",
                  execModeName(mode),
                  static_cast<unsigned long long>(meter.steps()),
                  static_cast<unsigned long long>(meter.rows()),
                  static_cast<unsigned long long>(meter.intermediateRows()),
                  outcome.c_str(), executor.planDescription().c_str());
}

/** Every result row in output order, as SQL literals. */
std::string
rowsOne(const Catalog &catalog, const SelectStmt &select, ExecMode mode)
{
    EngineBehavior behavior;
    FaultSet faults;
    BudgetMeter meter(StepBudget{0, 0, 0});
    Executor executor(catalog, behavior, faults, mode, &meter);
    auto result = executor.runSelect(select);
    if (!result.isOk())
        return format("%s %s\n", execModeName(mode),
                      result.status().toString().c_str());
    std::string out = format("%s rows=%zu\n", execModeName(mode),
                             result.value().rowCount());
    for (RowView row : result.value().rows()) {
        out += " ";
        for (size_t i = 0; i < row.size(); ++i)
            out += (i == 0 ? " " : ", ") + row[i].literal();
        out += "\n";
    }
    return out;
}

std::string
renderRows(const Catalog &catalog)
{
    std::vector<const char *> statements(std::begin(kStatements),
                                         std::end(kStatements));
    statements.insert(statements.end(), std::begin(kRowsStatements),
                      std::end(kRowsStatements));
    std::string out;
    for (const char *sql : statements) {
        auto stmt = parseStatement(sql);
        EXPECT_TRUE(stmt.isOk()) << sql;
        if (!stmt.isOk())
            continue;
        const auto &select = static_cast<const SelectStmt &>(*stmt.value());
        out += std::string("== ") + sql + "\n";
        for (ExecMode mode : {ExecMode::Optimized, ExecMode::Reference})
            out += rowsOne(catalog, select, mode);
    }
    return out;
}

/** Compare @p rendered with golden @p name, or rewrite it on request. */
void
expectGolden(const std::string &rendered, const std::string &name)
{
    std::string golden_path = std::string(SQLPP_GOLDEN_DIR) + "/" + name;
    if (std::getenv("SQLPP_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(golden_path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
        out << rendered;
        GTEST_SKIP() << "golden file regenerated: " << golden_path;
    }

    std::ifstream in(golden_path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << golden_path
        << "; run once with SQLPP_UPDATE_GOLDEN=1";
    std::stringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(rendered, expected.str())
        << name << " changed; if intentional, "
           "regenerate with SQLPP_UPDATE_GOLDEN=1";
}

std::string
render(const Catalog &catalog)
{
    std::string out;
    for (const char *sql : kStatements) {
        auto stmt = parseStatement(sql);
        EXPECT_TRUE(stmt.isOk()) << sql;
        if (!stmt.isOk())
            continue;
        const auto &select = static_cast<const SelectStmt &>(*stmt.value());
        out += std::string("== ") + sql + "\n";
        for (ExecMode mode : {ExecMode::Optimized, ExecMode::Reference})
            out += runOne(catalog, select, mode, StepBudget{0, 0, 0});
        for (uint64_t cut : kStepCuts) {
            out += format("  cut %llu: ", static_cast<unsigned long long>(cut));
            out += runOne(catalog, select, ExecMode::Optimized,
                          StepBudget{cut, 0, 0});
        }
    }
    return out;
}

TEST(ExecutorGoldenTest, ChargesAndPlansMatchGolden)
{
    Database db;
    setUp(db);
    expectGolden(render(db.catalog()), "executor_charges.txt");
}

TEST(ExecutorGoldenTest, RowsMatchGolden)
{
    Database db;
    setUp(db);
    for (const char *sql : kRowsSetup)
        ASSERT_TRUE(db.execute(sql).isOk()) << sql;
    expectGolden(renderRows(db.catalog()), "executor_rows.txt");
}

TEST(ExecutorGoldenTest, RenderingIsRepeatable)
{
    // The executor keeps no state across statements: a second pass over
    // the same catalog renders identically.
    Database db;
    setUp(db);
    EXPECT_EQ(render(db.catalog()), render(db.catalog()));
}

} // namespace
} // namespace sqlpp

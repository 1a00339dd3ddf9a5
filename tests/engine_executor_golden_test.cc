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
 * Rerun with SQLPP_UPDATE_GOLDEN=1 to regenerate after a deliberate
 * semantic change.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

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
    std::string rendered = render(db.catalog());

    std::string golden_path =
        std::string(SQLPP_GOLDEN_DIR) + "/executor_charges.txt";
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
        << "executor charges or plans changed; if intentional, "
           "regenerate with SQLPP_UPDATE_GOLDEN=1";
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

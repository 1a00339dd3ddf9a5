/**
 * @file
 * Fault-injection tests: every injected logic bug must (a) change the
 * behaviour it claims to change and (b) leave a clean engine untouched.
 * These are the ground-truth bugs the oracle and campaign layers hunt.
 */
#include <gtest/gtest.h>

#include "engine/database.h"

namespace sqlpp {
namespace {

Database
faultyDb(FaultId fault)
{
    EngineConfig config;
    config.faults.enable(fault);
    return Database(config);
}

void
seed(Database &db)
{
    ASSERT_TRUE(db.execute("CREATE TABLE t0 (c0 INT, c1 TEXT)").isOk());
    ASSERT_TRUE(db.execute("INSERT INTO t0 VALUES (1, 'a'), (2, 'b'), "
                           "(3, 'c'), (NULL, 'd')")
                    .isOk());
}

size_t
rows(Database &db, const std::string &sql)
{
    auto result = db.execute(sql);
    EXPECT_TRUE(result.isOk()) << sql << ": " << result.status().toString();
    return result.isOk() ? result.value().rowCount() : 0;
}

TEST(FaultMetadataTest, NamesAndDescriptionsExist)
{
    for (const FaultInfo &row : faultTable()) {
        EXPECT_STREQ(faultName(row.value), row.name);
        EXPECT_STREQ(faultDescription(row.value), row.description);
    }
    EXPECT_EQ(faultTable().size(), 26u);
}

FaultFamily
familyOf(FaultId id)
{
    for (const FaultInfo &row : faultTable()) {
        if (row.value == id)
            return row.family;
    }
    ADD_FAILURE() << "no fault table row for " << static_cast<int>(id);
    return FaultFamily::Evaluator;
}

TEST(FaultMetadataTest, PlannerAndLatentClassification)
{
    EXPECT_EQ(familyOf(FaultId::OnToWhereRightJoin), FaultFamily::Planner);
    EXPECT_EQ(familyOf(FaultId::ConstFoldTrueAbsorbsAnd),
              FaultFamily::Planner);
    EXPECT_EQ(familyOf(FaultId::NotNullTrue), FaultFamily::Evaluator);
    EXPECT_EQ(familyOf(FaultId::DoubleNegNullFalse), FaultFamily::Evaluator);
    EXPECT_EQ(familyOf(FaultId::SumEmptyZero), FaultFamily::Latent);
    EXPECT_EQ(familyOf(FaultId::ReplaceNumericSubject), FaultFamily::Latent);
    EXPECT_EQ(familyOf(FaultId::WhereNullAsTrue), FaultFamily::Evaluator);
    EXPECT_EQ(familyOf(FaultId::TxnDirtyRead), FaultFamily::Isolation);
    EXPECT_EQ(familyOf(FaultId::TxnLostUpdate), FaultFamily::Isolation);
}

TEST(FaultSetTest, EnableDisable)
{
    FaultSet faults;
    EXPECT_TRUE(faults.empty());
    faults.enable(FaultId::NotNullTrue);
    EXPECT_TRUE(faults.isEnabled(FaultId::NotNullTrue));
    EXPECT_FALSE(faults.isEnabled(FaultId::WhereNullAsTrue));
    faults.disable(FaultId::NotNullTrue);
    EXPECT_TRUE(faults.empty());
}

TEST(FaultTest, IndexRangeGtIncludesEqual)
{
    Database db = faultyDb(FaultId::IndexRangeGtIncludesEqual);
    seed(db);
    ASSERT_TRUE(db.execute("CREATE INDEX i0 ON t0(c0)").isOk());
    // Optimized: index probe includes c0 = 2; reference is correct.
    EXPECT_EQ(rows(db, "SELECT * FROM t0 WHERE c0 > 2"), 2u);
    auto reference = db.executeReference("SELECT * FROM t0 WHERE c0 > 2");
    EXPECT_EQ(reference.value().rowCount(), 1u);
}

TEST(FaultTest, IndexRangeLtIncludesEqual)
{
    Database db = faultyDb(FaultId::IndexRangeLtIncludesEqual);
    seed(db);
    ASSERT_TRUE(db.execute("CREATE INDEX i0 ON t0(c0)").isOk());
    EXPECT_EQ(rows(db, "SELECT * FROM t0 WHERE c0 < 2"), 2u);
    EXPECT_EQ(
        db.executeReference("SELECT * FROM t0 WHERE c0 < 2")
            .value()
            .rowCount(),
        1u);
}

TEST(FaultTest, IndexSkipsNull)
{
    Database db = faultyDb(FaultId::IndexSkipsNull);
    seed(db);
    ASSERT_TRUE(db.execute("CREATE INDEX i0 ON t0(c0)").isOk());
    EXPECT_EQ(rows(db, "SELECT * FROM t0 WHERE c0 IS NULL"), 0u);
    EXPECT_EQ(db.executeReference("SELECT * FROM t0 WHERE c0 IS NULL")
                  .value()
                  .rowCount(),
              1u);
}

TEST(FaultTest, IndexEqTextCoerce)
{
    Database db = faultyDb(FaultId::IndexEqTextCoerce);
    seed(db);
    ASSERT_TRUE(db.execute("CREATE INDEX i0 ON t0(c0)").isOk());
    // '2' should match nothing (cross-class equality), but the faulty
    // probe coerces it to 2.
    EXPECT_EQ(rows(db, "SELECT * FROM t0 WHERE c0 = '2'"), 1u);
    EXPECT_EQ(db.executeReference("SELECT * FROM t0 WHERE c0 = '2'")
                  .value()
                  .rowCount(),
              0u);
}

TEST(FaultTest, PartialIndexIgnoresPredicate)
{
    Database db = faultyDb(FaultId::PartialIndexIgnoresPredicate);
    seed(db);
    // Partial index over c0 > 2 only contains the row with c0 = 3.
    ASSERT_TRUE(
        db.execute("CREATE INDEX i0 ON t0(c0) WHERE (c0 > 2)").isOk());
    // Query for c0 = 1 wrongly uses the partial index -> misses the row.
    EXPECT_EQ(rows(db, "SELECT * FROM t0 WHERE c0 = 1"), 0u);
    EXPECT_EQ(db.executeReference("SELECT * FROM t0 WHERE c0 = 1")
                  .value()
                  .rowCount(),
              1u);
}

TEST(FaultTest, PushdownThroughOuterJoin)
{
    Database db = faultyDb(FaultId::PushdownThroughOuterJoin);
    seed(db);
    ASSERT_TRUE(db.execute("CREATE TABLE t1 (c0 INT)").isOk());
    ASSERT_TRUE(db.execute("INSERT INTO t1 VALUES (1)").isOk());
    // Correct: LEFT JOIN null-extends rows of t0 unmatched in t1, then
    // the WHERE on t1.c0 IS NULL keeps them (3 rows). Pushing the
    // filter below the join evaluates it before null-extension: t1 has
    // no NULL rows -> every t0 row null-extends -> rows where predicate
    // is later... the shapes differ.
    const char *sql =
        "SELECT * FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0 "
        "WHERE t1.c0 IS NULL";
    auto optimized = db.execute(sql);
    auto reference = db.executeReference(sql);
    ASSERT_TRUE(optimized.isOk());
    ASSERT_TRUE(reference.isOk());
    EXPECT_FALSE(
        optimized.value().sameRowMultiset(reference.value()));
}

TEST(FaultTest, OnToWhereRightJoin)
{
    Database db = faultyDb(FaultId::OnToWhereRightJoin);
    seed(db);
    ASSERT_TRUE(db.execute("CREATE TABLE t1 (c0 INT)").isOk());
    ASSERT_TRUE(db.execute("INSERT INTO t1 VALUES (1), (9)").isOk());
    // The faulty flattener pass only runs for queries with a WHERE
    // clause; without one the plan is correct.
    const char *clean_sql =
        "SELECT * FROM t0 RIGHT JOIN t1 ON t0.c0 = t1.c0";
    EXPECT_EQ(rows(db, clean_sql), 2u);
    const char *sql = "SELECT * FROM t0 RIGHT JOIN t1 ON t0.c0 = t1.c0 "
                      "WHERE TRUE";
    auto optimized = db.execute(sql);
    auto reference = db.executeReference(sql);
    ASSERT_TRUE(optimized.isOk());
    ASSERT_TRUE(reference.isOk());
    // Correct result keeps the unmatched t1 row (9) null-extended; the
    // fault filters it out post-join.
    EXPECT_EQ(reference.value().rowCount(), 2u);
    EXPECT_EQ(optimized.value().rowCount(), 1u);
}

TEST(FaultTest, HashJoinNullMatch)
{
    Database db = faultyDb(FaultId::HashJoinNullMatch);
    seed(db);
    ASSERT_TRUE(db.execute("CREATE TABLE t1 (c0 INT)").isOk());
    ASSERT_TRUE(db.execute("INSERT INTO t1 VALUES (NULL), (2)").isOk());
    const char *sql = "SELECT * FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0";
    // NULL = NULL wrongly matches in the hash join.
    EXPECT_EQ(rows(db, sql), 2u);
    EXPECT_EQ(db.executeReference(sql).value().rowCount(), 1u);
}

TEST(FaultTest, ConstFoldNullifIdentity)
{
    Database db = faultyDb(FaultId::ConstFoldNullifIdentity);
    seed(db);
    // NULLIF(2, 2) is NULL, so no rows qualify; the folding bug turns
    // the predicate into the constant 2 (truthy).
    const char *sql = "SELECT * FROM t0 WHERE NULLIF(2, 2)";
    EXPECT_EQ(rows(db, sql), 4u);
    EXPECT_EQ(db.executeReference(sql).value().rowCount(), 0u);
    // Non-identical arguments are not misfolded.
    EXPECT_EQ(rows(db, "SELECT * FROM t0 WHERE NULLIF(2, 3) = 2"), 4u);
}

TEST(FaultTest, NotNullTrue)
{
    Database db = faultyDb(FaultId::NotNullTrue);
    seed(db);
    // NOT (NULL > 1) is NULL -> excluded normally; fault keeps the
    // NULL-c0 row.
    EXPECT_EQ(rows(db, "SELECT * FROM t0 WHERE NOT (c0 > 1)"), 2u);
    Database clean;
    ASSERT_TRUE(clean.execute("CREATE TABLE t0 (c0 INT)").isOk());
    ASSERT_TRUE(
        clean.execute("INSERT INTO t0 VALUES (1), (NULL)").isOk());
    EXPECT_EQ(rows(clean, "SELECT * FROM t0 WHERE NOT (c0 > 1)"), 1u);
}

TEST(FaultTest, IsNullFalseForBoolNull)
{
    Database db = faultyDb(FaultId::IsNullFalseForBoolNull);
    seed(db);
    // (c0 > 1) IS NULL should keep the NULL-c0 row; the fault reports
    // FALSE for NULLs produced by comparisons.
    EXPECT_EQ(rows(db, "SELECT * FROM t0 WHERE (c0 > 1) IS NULL"), 0u);
    // Plain column NULLs are classified correctly.
    EXPECT_EQ(rows(db, "SELECT * FROM t0 WHERE c0 IS NULL"), 1u);
}

TEST(FaultTest, WhereNullAsTrue)
{
    Database db = faultyDb(FaultId::WhereNullAsTrue);
    seed(db);
    // The NULL-c0 row has a NULL predicate and is wrongly kept.
    EXPECT_EQ(rows(db, "SELECT * FROM t0 WHERE c0 > 1"), 3u);
    // ON clauses are unaffected by the WHERE fault.
    ASSERT_TRUE(db.execute("CREATE TABLE t1 (c0 INT)").isOk());
    ASSERT_TRUE(db.execute("INSERT INTO t1 VALUES (NULL)").isOk());
    EXPECT_EQ(rows(db, "SELECT * FROM t0 INNER JOIN t1 AS x ON "
                       "t0.c0 = x.c0"),
              0u);
}

TEST(FaultTest, NegContextMixedEq)
{
    Database db = faultyDb(FaultId::NegContextMixedEq);
    seed(db);
    // c1 = '1'? No wait: compare TEXT column against integer. Normally
    // '1' = 1 is FALSE (cross-class) in both contexts; under NOT the
    // fault coerces, making NOT('1' = 1) evaluate NOT(TRUE) = FALSE.
    ASSERT_TRUE(db.execute("INSERT INTO t0 VALUES (7, '1')").isOk());
    EXPECT_EQ(rows(db, "SELECT * FROM t0 WHERE c1 = 1"), 0u);
    // Without the fault NOT(c1 = 1) keeps all 5 rows; with it, the
    // row with c1='1' flips to TRUE under NOT and gets dropped.
    EXPECT_EQ(rows(db, "SELECT * FROM t0 WHERE NOT (c1 = 1)"), 4u);
}

TEST(FaultTest, IsTrueFalseTrue)
{
    Database db = faultyDb(FaultId::IsTrueFalseTrue);
    seed(db);
    // (c0 > 99) IS TRUE should keep nothing; the fault reports TRUE for
    // FALSE operands (NULL stays FALSE).
    EXPECT_EQ(rows(db, "SELECT * FROM t0 WHERE (c0 > 99) IS TRUE"), 3u);
}

TEST(FaultTest, DistinctNullCollapse)
{
    Database db = faultyDb(FaultId::DistinctNullCollapse);
    ASSERT_TRUE(db.execute("CREATE TABLE t0 (a INT, b INT)").isOk());
    ASSERT_TRUE(db.execute("INSERT INTO t0 VALUES (1, NULL), (NULL, 2), "
                           "(3, 3)")
                    .isOk());
    // Two distinct NULL-containing rows collapse into one. The fault
    // lives in the shared executor, so the reference pipeline shows it
    // too (which is why only TLP-style client-side recombination can
    // catch it); compare against a clean engine instead.
    EXPECT_EQ(rows(db, "SELECT DISTINCT a, b FROM t0"), 2u);
    Database clean;
    ASSERT_TRUE(clean.execute("CREATE TABLE t0 (a INT, b INT)").isOk());
    ASSERT_TRUE(clean
                    .execute("INSERT INTO t0 VALUES (1, NULL), "
                             "(NULL, 2), (3, 3)")
                    .isOk());
    EXPECT_EQ(rows(clean, "SELECT DISTINCT a, b FROM t0"), 3u);
}

TEST(FaultTest, NullSafeEqBothNullFalse)
{
    Database db = faultyDb(FaultId::NullSafeEqBothNullFalse);
    seed(db);
    EXPECT_EQ(rows(db, "SELECT * FROM t0 WHERE c0 <=> NULL"), 0u);
    Database clean;
    seed(clean);
    EXPECT_EQ(rows(clean, "SELECT * FROM t0 WHERE c0 <=> NULL"), 1u);
}

TEST(FaultTest, SumEmptyZero)
{
    Database db = faultyDb(FaultId::SumEmptyZero);
    ASSERT_TRUE(db.execute("CREATE TABLE t0 (c0 INT)").isOk());
    auto result = db.execute("SELECT SUM(c0) FROM t0");
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value().rows()[0][0].asInt(), 0); // should be NULL
}

TEST(FaultTest, GroupByNullSeparate)
{
    Database db = faultyDb(FaultId::GroupByNullSeparate);
    ASSERT_TRUE(db.execute("CREATE TABLE t0 (c0 INT)").isOk());
    ASSERT_TRUE(
        db.execute("INSERT INTO t0 VALUES (NULL), (NULL), (1)").isOk());
    EXPECT_EQ(rows(db, "SELECT c0 FROM t0 GROUP BY c0"), 3u);
    Database clean;
    ASSERT_TRUE(clean.execute("CREATE TABLE t0 (c0 INT)").isOk());
    ASSERT_TRUE(
        clean.execute("INSERT INTO t0 VALUES (NULL), (NULL), (1)")
            .isOk());
    EXPECT_EQ(rows(clean, "SELECT c0 FROM t0 GROUP BY c0"), 2u);
}

TEST(FaultTest, LikeUnderscoreLiteral)
{
    Database db = faultyDb(FaultId::LikeUnderscoreLiteral);
    seed(db);
    // 'a' LIKE '_' should match every 1-char string; the fault demands
    // a literal underscore.
    EXPECT_EQ(rows(db, "SELECT * FROM t0 WHERE c1 LIKE '_'"), 0u);
    ASSERT_TRUE(db.execute("INSERT INTO t0 VALUES (8, '_')").isOk());
    EXPECT_EQ(rows(db, "SELECT * FROM t0 WHERE c1 LIKE '_'"), 1u);
}

/**
 * Differential property: with NO faults enabled, the optimized pipeline
 * must agree with the reference pipeline on a broad query matrix.
 */
class CleanDifferentialTest
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CleanDifferentialTest, OptimizedEqualsReference)
{
    Database db;
    ASSERT_TRUE(
        db.execute("CREATE TABLE t0 (c0 INT, c1 TEXT, c2 BOOLEAN)")
            .isOk());
    ASSERT_TRUE(db.execute("CREATE TABLE t1 (c0 INT)").isOk());
    ASSERT_TRUE(db.execute("INSERT INTO t0 VALUES "
                           "(1, 'a', TRUE), (2, 'b', FALSE), "
                           "(NULL, 'c', NULL), (3, NULL, TRUE), "
                           "(2, '2', FALSE)")
                    .isOk());
    ASSERT_TRUE(
        db.execute("INSERT INTO t1 VALUES (2), (3), (NULL), (9)")
            .isOk());
    ASSERT_TRUE(db.execute("CREATE INDEX i0 ON t0(c0)").isOk());
    ASSERT_TRUE(db.execute("CREATE INDEX i1 ON t1(c0)").isOk());

    const char *sql = GetParam();
    auto optimized = db.execute(sql);
    auto reference = db.executeReference(sql);
    ASSERT_EQ(optimized.isOk(), reference.isOk()) << sql;
    if (optimized.isOk()) {
        EXPECT_TRUE(
            optimized.value().sameRowMultiset(reference.value()))
            << sql << "\nOPT:\n"
            << optimized.value().toString() << "REF:\n"
            << reference.value().toString();
    }
}

INSTANTIATE_TEST_SUITE_P(
    QueryMatrix, CleanDifferentialTest,
    ::testing::Values(
        "SELECT * FROM t0 WHERE c0 > 1",
        "SELECT * FROM t0 WHERE c0 >= 2 AND c1 <> 'q'",
        "SELECT * FROM t0 WHERE c0 < 3",
        "SELECT * FROM t0 WHERE c0 <= 2",
        "SELECT * FROM t0 WHERE c0 = 2",
        "SELECT * FROM t0 WHERE c0 IS NULL",
        "SELECT * FROM t0 WHERE c0 = '2'",
        "SELECT * FROM t0 WHERE NULLIF(2, 2) IS NULL",
        "SELECT * FROM t0 WHERE NOT (c0 > 1)",
        "SELECT * FROM t0 WHERE (c0 > 1) IS NULL",
        "SELECT * FROM t0 WHERE c0 <=> NULL",
        "SELECT * FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0",
        "SELECT * FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0",
        "SELECT * FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0 "
        "WHERE t1.c0 IS NULL",
        "SELECT * FROM t0 RIGHT JOIN t1 ON t0.c0 = t1.c0",
        "SELECT * FROM t0 FULL JOIN t1 ON t0.c0 = t1.c0",
        "SELECT * FROM t0 CROSS JOIN t1",
        "SELECT DISTINCT c0 FROM t0",
        "SELECT c0, COUNT(*) FROM t0 GROUP BY c0",
        "SELECT SUM(c0) FROM t0 WHERE c0 > 99",
        "SELECT * FROM t0 WHERE c0 IN (SELECT c0 FROM t1)",
        "SELECT * FROM t0 WHERE EXISTS "
        "(SELECT 1 FROM t1 WHERE t1.c0 = t0.c0)",
        "SELECT (SELECT MAX(c0) FROM t1) FROM t0",
        "SELECT * FROM (SELECT c0 FROM t0 WHERE c0 > 1) AS s "
        "WHERE s.c0 < 3",
        "SELECT * FROM t0 WHERE c1 LIKE '_'",
        "SELECT * FROM t0 ORDER BY c0 DESC LIMIT 3"));

} // namespace
} // namespace sqlpp

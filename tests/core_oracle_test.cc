/**
 * @file
 * Oracle tests: TLP and NoREC must pass on clean engines, flag their
 * designed fault classes, and skip gracefully on dialect rejections.
 */
#include <gtest/gtest.h>

#include "core/oracle.h"
#include "parser/parser.h"

namespace sqlpp {
namespace {

/** A one-off dialect with a custom fault set and full capabilities. */
DialectProfile
testProfile(std::initializer_list<FaultId> faults)
{
    DialectProfile profile = *findDialect("postgres-like");
    profile.name = "test";
    profile.behavior.staticTyping = false; // keep predicates flexible
    for (FaultId id : faults)
        profile.faults.enable(id);
    return profile;
}

void
seed(Connection &conn)
{
    ASSERT_TRUE(conn.execute("CREATE TABLE t0 (c0 INT, c1 TEXT)").isOk());
    ASSERT_TRUE(conn.execute("INSERT INTO t0 VALUES (1, 'a'), (2, 'b'), "
                             "(3, 'c'), (NULL, 'd')")
                    .isOk());
}

OracleResult
runOracle(Oracle &oracle, Connection &conn, const std::string &base,
          const std::string &predicate)
{
    auto base_ast = parseStatement(base);
    auto pred_ast = parseExpression(predicate);
    EXPECT_TRUE(base_ast.isOk());
    EXPECT_TRUE(pred_ast.isOk());
    return oracle.check(
        conn, static_cast<const SelectStmt &>(*base_ast.value()),
        *pred_ast.value());
}

TEST(OracleFactoryTest, KnownNames)
{
    EXPECT_NE(makeOracle("TLP"), nullptr);
    EXPECT_NE(makeOracle("tlp"), nullptr);
    EXPECT_NE(makeOracle("NOREC"), nullptr);
    EXPECT_NE(makeOracle("PQS"), nullptr);
    EXPECT_NE(makeOracle("pqs"), nullptr);
    EXPECT_EQ(makeOracle("DQE"), nullptr);
}

TEST(TlpOracleTest, PassesOnCleanEngine)
{
    DialectProfile profile = testProfile({});
    Connection conn(profile);
    seed(conn);
    TlpOracle tlp;
    const char *predicates[] = {
        "t0.c0 > 1",       "t0.c0 IS NULL",       "NOT (t0.c0 = 2)",
        "t0.c1 LIKE '%a%'", "t0.c0 BETWEEN 1 AND 2",
        "t0.c0 IN (1, NULL)",
    };
    for (const char *p : predicates) {
        OracleResult result =
            runOracle(tlp, conn, "SELECT * FROM t0", p);
        EXPECT_EQ(result.outcome, OracleOutcome::Passed)
            << p << ": " << result.details;
        EXPECT_EQ(result.queries.size(), 4u);
    }
}

TEST(TlpOracleTest, DistinctPassesOnRowsSplitAtUnitSeparator)
{
    // Two different rows that a CHR(31)-joined row key would merge: the
    // engine's DISTINCT and the client-side dedupe must both keep two.
    Connection conn(*findDialect("postgres-like"));
    ASSERT_TRUE(conn.execute("CREATE TABLE t0 (c0 TEXT, c1 TEXT)").isOk());
    ASSERT_TRUE(conn.execute("INSERT INTO t0 VALUES "
                             "('a' || CHR(31) || 'tb', 'c'), "
                             "('a', 'b' || CHR(31) || 'tc')")
                    .isOk());
    TlpOracle tlp;
    OracleResult result =
        runOracle(tlp, conn, "SELECT DISTINCT * FROM t0", "t0.c0 = 'a'");
    EXPECT_EQ(result.outcome, OracleOutcome::Passed) << result.details;
}

TEST(TlpOracleTest, DistinctBaseDedupesRowsRepeatedAcrossPartitions)
{
    // 'a' comes back from all three partitions and 'b' twice from one;
    // the recombined partitions still hold the base's two rows.
    DialectProfile profile = testProfile({});
    Connection conn(profile);
    ASSERT_TRUE(conn.execute("CREATE TABLE t0 (c0 INT, c1 TEXT)").isOk());
    ASSERT_TRUE(conn.execute("INSERT INTO t0 VALUES (1, 'a'), (2, 'a'), "
                             "(NULL, 'a'), (3, 'b'), (3, 'b')")
                    .isOk());
    TlpOracle tlp;
    for (const char *base :
         {"SELECT DISTINCT t0.c1 FROM t0",
          "SELECT DISTINCT t0.c1 FROM t0 ORDER BY t0.c1 DESC"}) {
        OracleResult result = runOracle(tlp, conn, base, "t0.c0 > 1");
        EXPECT_EQ(result.outcome, OracleOutcome::Passed)
            << base << ": " << result.details;
        EXPECT_EQ(result.queries.size(), 4u);
    }
}

TEST(TlpOracleTest, CatchesNotNullFault)
{
    DialectProfile profile = testProfile({FaultId::NotNullTrue});
    Connection conn(profile);
    seed(conn);
    TlpOracle tlp;
    // NOT inside the partition flips NULL to TRUE -> partition law broken.
    OracleResult result =
        runOracle(tlp, conn, "SELECT * FROM t0", "t0.c0 > 1");
    EXPECT_EQ(result.outcome, OracleOutcome::Bug) << result.details;
}

TEST(TlpOracleTest, CatchesWhereNullFault)
{
    DialectProfile profile = testProfile({FaultId::WhereNullAsTrue});
    Connection conn(profile);
    seed(conn);
    TlpOracle tlp;
    OracleResult result =
        runOracle(tlp, conn, "SELECT * FROM t0", "t0.c0 > 1");
    EXPECT_EQ(result.outcome, OracleOutcome::Bug) << result.details;
}

TEST(TlpOracleTest, CatchesIndexFault)
{
    DialectProfile profile =
        testProfile({FaultId::IndexRangeGtIncludesEqual});
    Connection conn(profile);
    seed(conn);
    ASSERT_TRUE(conn.execute("CREATE INDEX i0 ON t0(c0)").isOk());
    TlpOracle tlp;
    OracleResult result =
        runOracle(tlp, conn, "SELECT * FROM t0", "t0.c0 > 2");
    EXPECT_EQ(result.outcome, OracleOutcome::Bug) << result.details;
}

TEST(TlpOracleTest, CatchesNegContextFault)
{
    DialectProfile profile = testProfile({FaultId::NegContextMixedEq});
    Connection conn(profile);
    seed(conn);
    ASSERT_TRUE(conn.execute("INSERT INTO t0 VALUES (7, '2')").isOk());
    TlpOracle tlp;
    // c1 = 2 flips under the NOT of the second partition.
    OracleResult result =
        runOracle(tlp, conn, "SELECT * FROM t0", "t0.c1 = 2");
    EXPECT_EQ(result.outcome, OracleOutcome::Bug) << result.details;
}

TEST(TlpOracleTest, SkipsWhenBaseFails)
{
    DialectProfile profile = testProfile({});
    Connection conn(profile);
    TlpOracle tlp;
    OracleResult result =
        runOracle(tlp, conn, "SELECT * FROM missing", "1 = 1");
    EXPECT_EQ(result.outcome, OracleOutcome::Skipped);
    EXPECT_NE(result.details.find("base query failed"),
              std::string::npos);
}

TEST(TlpOracleTest, SkipsWhenPartitionFails)
{
    DialectProfile profile = testProfile({});
    profile.behavior.divZeroIsNull = false;
    Connection conn(profile);
    seed(conn);
    TlpOracle tlp;
    OracleResult result =
        runOracle(tlp, conn, "SELECT * FROM t0", "(1 / 0) = 1");
    EXPECT_EQ(result.outcome, OracleOutcome::Skipped);
}

TEST(NorecOracleTest, PassesOnCleanEngine)
{
    DialectProfile profile = testProfile({});
    Connection conn(profile);
    seed(conn);
    ASSERT_TRUE(conn.execute("CREATE INDEX i0 ON t0(c0)").isOk());
    NorecOracle norec;
    const char *predicates[] = {
        "t0.c0 > 1", "t0.c0 = 2", "t0.c0 IS NULL", "t0.c0 < 3",
        "t0.c1 LIKE '_'",
    };
    for (const char *p : predicates) {
        OracleResult result =
            runOracle(norec, conn, "SELECT * FROM t0", p);
        EXPECT_EQ(result.outcome, OracleOutcome::Passed)
            << p << ": " << result.details;
    }
}

TEST(NorecOracleTest, CatchesIndexFaults)
{
    struct Case { FaultId fault; const char *predicate; };
    const Case cases[] = {
        {FaultId::IndexRangeGtIncludesEqual, "t0.c0 > 2"},
        {FaultId::IndexRangeLtIncludesEqual, "t0.c0 < 2"},
        {FaultId::IndexSkipsNull, "t0.c0 IS NULL"},
        {FaultId::IndexEqTextCoerce, "t0.c0 = '2'"},
    };
    for (const Case &c : cases) {
        DialectProfile profile = testProfile({c.fault});
        Connection conn(profile);
        seed(conn);
        ASSERT_TRUE(conn.execute("CREATE INDEX i0 ON t0(c0)").isOk());
        NorecOracle norec;
        OracleResult result =
            runOracle(norec, conn, "SELECT * FROM t0", c.predicate);
        EXPECT_EQ(result.outcome, OracleOutcome::Bug)
            << faultName(c.fault) << ": " << result.details;
    }
}

TEST(NorecOracleTest, CatchesConstFoldFault)
{
    DialectProfile profile =
        testProfile({FaultId::ConstFoldNullifIdentity});
    Connection conn(profile);
    seed(conn);
    NorecOracle norec;
    OracleResult result =
        runOracle(norec, conn, "SELECT * FROM t0", "NULLIF(2, 2)");
    EXPECT_EQ(result.outcome, OracleOutcome::Bug) << result.details;
}

TEST(NorecOracleTest, CatchesIsTrueFault)
{
    DialectProfile profile = testProfile({FaultId::IsTrueFalseTrue});
    Connection conn(profile);
    seed(conn);
    NorecOracle norec;
    OracleResult result =
        runOracle(norec, conn, "SELECT * FROM t0", "t0.c0 > 99");
    EXPECT_EQ(result.outcome, OracleOutcome::Bug) << result.details;
}

TEST(NorecOracleTest, EvaluatorFaultsInvisible)
{
    // NOT/IS NULL faults hit both the counting and the reference sides
    // identically; NoREC must stay silent (that is TLP's territory).
    DialectProfile profile =
        testProfile({FaultId::NotNullTrue, FaultId::WhereNullAsTrue});
    Connection conn(profile);
    seed(conn);
    NorecOracle norec;
    OracleResult result =
        runOracle(norec, conn, "SELECT * FROM t0", "t0.c0 > 1");
    // WhereNullAsTrue inflates the COUNT side: actually visible.
    // NOT-based faults alone are not: check with a NOT-free predicate
    // on a profile with only NotNullTrue.
    DialectProfile only_not = testProfile({FaultId::NotNullTrue});
    Connection conn2(only_not);
    ASSERT_TRUE(
        conn2.execute("CREATE TABLE t0 (c0 INT, c1 TEXT)").isOk());
    ASSERT_TRUE(
        conn2.execute("INSERT INTO t0 VALUES (1, 'a'), (NULL, 'b')")
            .isOk());
    OracleResult quiet =
        runOracle(norec, conn2, "SELECT * FROM t0", "t0.c0 > 0");
    EXPECT_EQ(quiet.outcome, OracleOutcome::Passed) << quiet.details;
}

TEST(NorecOracleTest, FallsBackWithoutIsTrue)
{
    // cubrid-like rejects IS TRUE; NoREC must fall back to CASE.
    const DialectProfile *cubrid = findDialect("cubrid-like");
    ASSERT_NE(cubrid, nullptr);
    Connection conn(*cubrid);
    ASSERT_TRUE(conn.execute("CREATE TABLE t0 (c0 INT)").isOk());
    ASSERT_TRUE(
        conn.execute("INSERT INTO t0 VALUES (1)").isOk());
    NorecOracle norec;
    OracleResult result =
        runOracle(norec, conn, "SELECT * FROM t0", "t0.c0 > 0");
    EXPECT_EQ(result.outcome, OracleOutcome::Passed) << result.details;
    // The full statement list is recorded, including the IS TRUE probe
    // that the dialect rejected before the CASE fallback ran.
    ASSERT_EQ(result.queries.size(), 3u);
    EXPECT_NE(result.queries[1].find("IS TRUE"), std::string::npos);
    EXPECT_NE(result.queries[2].find("CASE"), std::string::npos);
}

TEST(OracleListingsTest, Listing3StyleReplaceBug)
{
    // Paper Listing 3 on the sqlite-like dialect: the context-dependent
    // mixed-type comparison behind the REPLACE bug.
    const DialectProfile *sqlite = findDialect("sqlite-like");
    Connection conn(*sqlite);
    ASSERT_TRUE(conn.execute("CREATE TABLE t0 (c0 TEXT)").isOk());
    ASSERT_TRUE(conn.execute("INSERT INTO t0 (c0) VALUES (1)").isOk());
    TlpOracle tlp;
    OracleResult result = runOracle(
        tlp, conn, "SELECT * FROM t0", "t0.c0 = REPLACE(1, '', 0)");
    EXPECT_EQ(result.outcome, OracleOutcome::Bug) << result.details;
}

TEST(OracleListingsTest, Listing4StyleRightJoinBug)
{
    // Paper Listing 4: ON -> WHERE flattening on RIGHT JOIN, visible to
    // both oracles through the join result.
    const DialectProfile *sqlite = findDialect("sqlite-like");
    Connection conn(*sqlite);
    ASSERT_TRUE(conn.execute("CREATE TABLE t0 (c0 INT)").isOk());
    ASSERT_TRUE(conn.execute("CREATE TABLE t1 (c0 INT)").isOk());
    ASSERT_TRUE(conn.execute("INSERT INTO t0 VALUES (1)").isOk());
    ASSERT_TRUE(conn.execute("INSERT INTO t1 VALUES (1), (9)").isOk());
    NorecOracle norec;
    OracleResult result = runOracle(
        norec, conn,
        "SELECT * FROM t0 RIGHT JOIN t1 ON (t0.c0 = t1.c0)", "TRUE");
    EXPECT_EQ(result.outcome, OracleOutcome::Bug) << result.details;
}

} // namespace
} // namespace sqlpp

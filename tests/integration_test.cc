/**
 * @file
 * Cross-module integration and property tests:
 *
 *  - generator-driven differential testing of the engine itself (on a
 *    fault-free engine, optimized and reference pipelines must agree on
 *    every generated query — the same technique the platform applies to
 *    its targets, turned inward);
 *  - a fault-detectability matrix: every non-latent injected fault is
 *    found by at least one oracle in a targeted single-fault campaign;
 *  - a campaign smoke sweep across all 17 dialects.
 */
#include <gtest/gtest.h>

#include "core/campaign.h"
#include "core/oracle.h"
#include "sqlir/printer.h"
#include "engine/database.h"
#include "parser/parser.h"

namespace sqlpp {

/**
 * Print a profile parameter by name, not by address: gtest appends the
 * printed parameter to every listed test name, and an address would
 * change the name on each run.
 */
static void
PrintTo(const DialectProfile *profile, std::ostream *os)
{
    *os << profile->name;
}

namespace {

/**
 * Property: with no faults, the optimizing pipeline agrees with the
 * reference pipeline on arbitrary generated queries (parameterized over
 * seeds for independent generation streams).
 */
class EngineDifferentialTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(EngineDifferentialTest, OptimizedAgreesWithReference)
{
    FeatureRegistry registry;
    OpenGate gate;
    SchemaModel model;
    GeneratorConfig config;
    config.seed = GetParam();
    AdaptiveGenerator generator(config, registry, gate, model);
    Database db; // no faults, dynamic typing

    for (int i = 0; i < 60; ++i) {
        GeneratedStatement stmt = generator.generateSetupStatement();
        auto result = db.execute(stmt.text);
        generator.noteExecution(stmt, result.isOk());
    }
    int compared = 0;
    for (int i = 0; i < 150; ++i) {
        GeneratedStatement stmt = generator.generateSelect();
        auto optimized = db.execute(stmt.text);
        auto reference = db.executeReference(stmt.text);
        ASSERT_EQ(optimized.isOk(), reference.isOk())
            << stmt.text << "\nopt: " << optimized.status().toString()
            << "\nref: " << reference.status().toString();
        if (!optimized.isOk())
            continue;
        ++compared;
        // ORDER BY only fixes the order of equal-multiset results; use
        // the multiset view for both.
        EXPECT_TRUE(
            optimized.value().sameRowMultiset(reference.value()))
            << stmt.text;
    }
    EXPECT_GT(compared, 50);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDifferentialTest,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

/**
 * Property: shapes generated for the oracles replay deterministically —
 * printing and re-parsing a shape yields identical text (the reducer and
 * the replay path both depend on this).
 */
TEST(ShapeRoundTripTest, PrintParsePrintIsStable)
{
    FeatureRegistry registry;
    OpenGate gate;
    SchemaModel model;
    GeneratorConfig config;
    config.seed = 5;
    AdaptiveGenerator generator(config, registry, gate, model);
    for (int i = 0; i < 30; ++i)
        generator.noteExecution(generator.generateSetupStatement(), true);
    int checked = 0;
    for (int i = 0; i < 100; ++i) {
        auto shape = generator.generateQueryShape();
        if (!shape.has_value())
            continue;
        ++checked;
        std::string base_text = printSelect(*shape->base);
        std::string pred_text = printExpr(*shape->predicate);
        auto base2 = parseStatement(base_text);
        auto pred2 = parseExpression(pred_text);
        ASSERT_TRUE(base2.isOk()) << base_text;
        ASSERT_TRUE(pred2.isOk()) << pred_text;
        EXPECT_EQ(printStmt(*base2.value()), base_text);
        EXPECT_EQ(printExpr(*pred2.value()), pred_text);
    }
    EXPECT_GT(checked, 60);
}

/**
 * Oracle fault matrix: for every oracle-visible fault there is a
 * crafted scenario its designed oracle flags deterministically; latent
 * faults stay silent even under a random campaign. (Whether *random*
 * search finds a given fault in N checks is stochastic and exercised by
 * the campaign tests and benches instead.)
 */
struct FaultScenario
{
    FaultId fault;
    const char *oracle;
    std::vector<const char *> setup;
    const char *base;
    const char *predicate;
    bool distinct = false;
};

class OracleFaultMatrixTest
    : public ::testing::TestWithParam<FaultScenario>
{
};

TEST_P(OracleFaultMatrixTest, CraftedScenarioIsFlagged)
{
    const FaultScenario &scenario = GetParam();
    DialectProfile profile = *findDialect("sqlite-like");
    profile.name = "single-fault";
    profile.faults = FaultSet{};
    profile.faults.enable(scenario.fault);
    Connection connection(profile);
    for (const char *statement : scenario.setup)
        ASSERT_TRUE(connection.execute(statement).isOk()) << statement;
    auto base = parseStatement(scenario.base);
    auto predicate = parseExpression(scenario.predicate);
    ASSERT_TRUE(base.isOk());
    ASSERT_TRUE(predicate.isOk());
    auto *select = static_cast<SelectStmt *>(base.value().get());
    select->distinct = scenario.distinct;
    auto oracle = makeOracle(scenario.oracle);
    OracleResult result =
        oracle->check(connection, *select, *predicate.value());
    EXPECT_EQ(result.outcome, OracleOutcome::Bug)
        << faultName(scenario.fault) << ": " << result.details;

    // Control: a clean engine must pass the same scenario (no oracle
    // false positive).
    DialectProfile clean = profile;
    clean.faults = FaultSet{};
    Connection clean_connection(clean);
    for (const char *statement : scenario.setup) {
        ASSERT_TRUE(clean_connection.execute(statement).isOk())
            << statement;
    }
    OracleResult clean_result =
        oracle->check(clean_connection, *select, *predicate.value());
    EXPECT_EQ(clean_result.outcome, OracleOutcome::Passed)
        << faultName(scenario.fault) << ": " << clean_result.details;
}

const std::vector<const char *> kIndexedSetup = {
    "CREATE TABLE t0 (c0 INT)",
    "INSERT INTO t0 VALUES (1), (2), (3), (NULL)",
    "CREATE INDEX i0 ON t0(c0)",
};
const std::vector<const char *> kJoinSetup = {
    "CREATE TABLE t0 (c0 INT)",
    "CREATE TABLE t1 (c0 INT)",
    "INSERT INTO t0 VALUES (1), (2), (NULL)",
    "INSERT INTO t1 VALUES (2), (9)",
};

INSTANTIATE_TEST_SUITE_P(
    CraftedScenarios, OracleFaultMatrixTest,
    ::testing::Values(
        FaultScenario{FaultId::IndexRangeGtIncludesEqual, "NOREC",
                      kIndexedSetup, "SELECT * FROM t0", "(t0.c0 > 2)"},
        FaultScenario{FaultId::IndexRangeGtIncludesEqual, "TLP",
                      kIndexedSetup, "SELECT * FROM t0", "(t0.c0 > 2)"},
        FaultScenario{FaultId::IndexRangeLtIncludesEqual, "TLP",
                      kIndexedSetup, "SELECT * FROM t0", "(t0.c0 < 2)"},
        FaultScenario{FaultId::IndexSkipsNull, "NOREC", kIndexedSetup,
                      "SELECT * FROM t0", "(t0.c0 IS NULL)"},
        FaultScenario{FaultId::IndexEqTextCoerce, "NOREC",
                      kIndexedSetup, "SELECT * FROM t0",
                      "(t0.c0 = '2')"},
        FaultScenario{FaultId::PartialIndexIgnoresPredicate, "NOREC",
                      {"CREATE TABLE t0 (c0 INT)",
                       "INSERT INTO t0 VALUES (1), (2), (3)",
                       "CREATE INDEX i0 ON t0(c0) WHERE (c0 > 2)"},
                      "SELECT * FROM t0", "(t0.c0 = 1)"},
        FaultScenario{FaultId::PushdownThroughOuterJoin, "TLP",
                      kJoinSetup,
                      "SELECT * FROM t0 LEFT JOIN t1 ON "
                      "(t0.c0 = t1.c0)",
                      "(t1.c0 IS NULL)"},
        FaultScenario{FaultId::OnToWhereRightJoin, "NOREC", kJoinSetup,
                      "SELECT * FROM t0 RIGHT JOIN t1 ON "
                      "(t0.c0 = t1.c0)",
                      "TRUE"},
        FaultScenario{FaultId::ConstFoldNullifIdentity, "NOREC",
                      kIndexedSetup, "SELECT * FROM t0",
                      "NULLIF(2, 2)"},
        FaultScenario{FaultId::NotNullTrue, "TLP", kIndexedSetup,
                      "SELECT * FROM t0", "(t0.c0 > 1)"},
        FaultScenario{FaultId::IsNullFalseForBoolNull, "TLP",
                      kIndexedSetup, "SELECT * FROM t0",
                      "(t0.c0 > 1)"},
        FaultScenario{FaultId::WhereNullAsTrue, "TLP", kIndexedSetup,
                      "SELECT * FROM t0", "(t0.c0 > 1)"},
        FaultScenario{FaultId::NegContextMixedEq, "TLP",
                      {"CREATE TABLE t0 (c0 TEXT)",
                       "INSERT INTO t0 VALUES ('1'), ('x')"},
                      "SELECT * FROM t0", "(t0.c0 = 1)"},
        FaultScenario{FaultId::IsTrueFalseTrue, "NOREC", kIndexedSetup,
                      "SELECT * FROM t0", "(t0.c0 > 99)"},
        FaultScenario{FaultId::DistinctNullCollapse, "TLP",
                      {"CREATE TABLE t0 (a INT, b INT)",
                       "INSERT INTO t0 VALUES (1, NULL), (NULL, 2), "
                       "(3, 3)"},
                      // The predicate splits the two NULL-bearing rows
                      // into different partitions, so the faulty
                      // engine-side collapse cannot cancel out.
                      "SELECT * FROM t0", "(t0.a IS NOT NULL)",
                      /*distinct=*/true}),
    [](const ::testing::TestParamInfo<FaultScenario> &info) {
        return std::string(faultName(info.param.fault)) + "_" +
               info.param.oracle + "_" +
               std::to_string(info.index);
    });

/**
 * Latent faults: invisible to both shipped oracles even under a random
 * campaign (they model the paper's "bug-finding has not saturated").
 */
class LatentFaultTest : public ::testing::TestWithParam<FaultId>
{
};

TEST_P(LatentFaultTest, StaysInvisibleToShippedOracles)
{
    FaultId fault = GetParam();
    DialectProfile profile = *findDialect("sqlite-like");
    profile.name = "latent-fault";
    profile.faults = FaultSet{};
    profile.faults.enable(fault);
    FeatureRegistry registry;
    OpenGate gate;
    SchemaModel model;
    GeneratorConfig config;
    config.seed = 515151;
    AdaptiveGenerator generator(config, registry, gate, model);
    Connection connection(profile);
    for (int i = 0; i < 70; ++i) {
        GeneratedStatement stmt = generator.generateSetupStatement();
        bool ok = connection.executeAdapted(stmt.text).isOk();
        generator.noteExecution(stmt, ok);
    }
    auto tlp = makeOracle("TLP");
    auto norec = makeOracle("NOREC");
    size_t bugs = 0;
    for (int i = 0; i < 250; ++i) {
        auto shape = generator.generateQueryShape();
        if (!shape.has_value())
            continue;
        for (Oracle *oracle : {tlp.get(), norec.get()}) {
            OracleResult result = oracle->check(
                connection, *shape->base, *shape->predicate);
            bugs += result.outcome == OracleOutcome::Bug ? 1 : 0;
        }
    }
    EXPECT_EQ(bugs, 0u) << faultName(fault);
}

INSTANTIATE_TEST_SUITE_P(
    Latent, LatentFaultTest,
    ::testing::Values(FaultId::NullSafeEqBothNullFalse,
                      FaultId::SumEmptyZero,
                      FaultId::GroupByNullSeparate,
                      FaultId::LikeUnderscoreLiteral,
                      FaultId::ReplaceNumericSubject),
    [](const ::testing::TestParamInfo<FaultId> &info) {
        return faultName(info.param);
    });

/** Campaign smoke across every campaign dialect. */
class DialectCampaignSmokeTest
    : public ::testing::TestWithParam<const DialectProfile *>
{
};

TEST_P(DialectCampaignSmokeTest, RunsAndBehaves)
{
    const DialectProfile *profile = GetParam();
    CampaignConfig config;
    config.dialect = profile->name;
    config.seed = 271828;
    config.checks = 250;
    config.setupStatements = 60;
    config.oracles = {"TLP", "NOREC"};
    CampaignRunner runner(config);
    CampaignStats stats = runner.run();
    EXPECT_GT(stats.setupSucceeded, 0u) << profile->name;
    EXPECT_GT(stats.checksAttempted, 0u) << profile->name;
    EXPECT_GT(stats.planFingerprints.size(), 0u) << profile->name;
    // Prioritization never inflates.
    EXPECT_LE(stats.prioritizedBugs.size(), stats.bugsDetected)
        << profile->name;
    // Every prioritized case carries a reproducer and metadata.
    for (const BugCase &bug : stats.prioritizedBugs) {
        EXPECT_FALSE(bug.setup.empty());
        EXPECT_FALSE(bug.baseText.empty());
        EXPECT_FALSE(bug.predicateText.empty());
        EXPECT_FALSE(bug.featureNames.empty());
        EXPECT_EQ(bug.dialect, profile->name);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllDialects, DialectCampaignSmokeTest,
    ::testing::ValuesIn(campaignDialects()),
    [](const ::testing::TestParamInfo<const DialectProfile *> &info) {
        std::string name = info.param->name;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace sqlpp

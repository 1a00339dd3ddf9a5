/**
 * @file
 * EET oracle tests: rewrite enumeration under the 3VL soundness gates,
 * deterministic salt-driven choice, the 500-rewrite equivalence
 * property on a fault-free engine, corner pins for NULL-heavy columns
 * and INT64 boundary constants, detection of the faults every other
 * oracle is structurally blind to, Inapplicable semantics on
 * capability-poor dialects, and campaign silence on the fault-free
 * reference dialect.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "core/campaign.h"
#include "core/oracle.h"
#include "core/rewrite.h"
#include "parser/parser.h"
#include "sqlir/printer.h"
#include "util/rng.h"

namespace sqlpp {
namespace {

/** A one-off dialect with a custom fault set and full capabilities. */
DialectProfile
testProfile(std::initializer_list<FaultId> faults)
{
    DialectProfile profile = *findDialect("postgres-like");
    profile.name = "test";
    profile.behavior.staticTyping = false; // keep predicates flexible
    profile.binaryOps.insert(BinaryOp::NullSafeEq);
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

/** Stats for a parsed base over a live connection. */
EetTableStats
statsFor(Connection &conn, const std::string &base_text)
{
    auto base_ast = parseStatement(base_text);
    EXPECT_TRUE(base_ast.isOk());
    const auto &base =
        static_cast<const SelectStmt &>(*base_ast.value());
    auto scan = conn.execute(eetStatsScanText(base));
    EXPECT_TRUE(scan.isOk());
    return computeTableStats(base, scan.value());
}

std::set<std::string>
kindsOf(const std::vector<RewriteCandidate> &candidates)
{
    std::set<std::string> kinds;
    for (const RewriteCandidate &candidate : candidates)
        kinds.insert(candidate.kind);
    return kinds;
}

TEST(EetRewriteTest, EnumerationCoversWrapperKinds)
{
    DialectProfile profile = testProfile({});
    Connection conn(profile);
    seed(conn);
    EetTableStats stats = statsFor(conn, "SELECT * FROM t0");

    // c1 has no NULLs in the seed data, so `c1 = 'a'` is provably
    // null-free and boolean-rooted: every wrapper kind applies.
    auto pred = parseExpression("t0.c1 = 'a'");
    ASSERT_TRUE(pred.isOk());
    auto candidates =
        enumerateRewrites(*pred.value(), profile, &stats);
    std::set<std::string> kinds = kindsOf(candidates);
    EXPECT_TRUE(kinds.count("and_true"));
    EXPECT_TRUE(kinds.count("or_false"));
    EXPECT_TRUE(kinds.count("not_not"));
    EXPECT_TRUE(kinds.count("is_true"));
    EXPECT_TRUE(kinds.count("is_not_false"));
    // c0 is the only integer column, so exactly one tautology lane.
    EXPECT_TRUE(kinds.count("taut_range"));
}

TEST(EetRewriteTest, NullCollapsingWrappersRequireProof)
{
    DialectProfile profile = testProfile({});
    Connection conn(profile);
    seed(conn);
    EetTableStats stats = statsFor(conn, "SELECT * FROM t0");

    // c0 holds a NULL: `(c0 = 1) IS TRUE` would turn a NULL row's
    // predicate into FALSE, which WHERE cannot distinguish — but the
    // projection lane could, so the wrapper must not be offered.
    auto nullable = parseExpression("t0.c0 = 1");
    ASSERT_TRUE(nullable.isOk());
    std::set<std::string> kinds =
        kindsOf(enumerateRewrites(*nullable.value(), profile, &stats));
    EXPECT_FALSE(kinds.count("is_true"));
    EXPECT_FALSE(kinds.count("is_not_false"));
    EXPECT_TRUE(kinds.count("and_true"));

    // A non-boolean root (bare column) fails the other gate even when
    // null-free: `c1 IS TRUE` is not value-equivalent to `c1`.
    auto bare = parseExpression("t0.c1");
    ASSERT_TRUE(bare.isOk());
    std::set<std::string> bare_kinds =
        kindsOf(enumerateRewrites(*bare.value(), profile, &stats));
    EXPECT_FALSE(bare_kinds.count("is_true"));
    EXPECT_FALSE(bare_kinds.count("is_not_false"));

    // Without stats nothing about columns is provable.
    std::set<std::string> blind_kinds = kindsOf(
        enumerateRewrites(*parseExpression("t0.c1 = 'a'").value(),
                          profile, nullptr));
    EXPECT_FALSE(blind_kinds.count("is_true"));
    EXPECT_FALSE(blind_kinds.count("taut_range"));
}

TEST(EetRewriteTest, ChoiceIsDeterministicInSalt)
{
    DialectProfile profile = testProfile({});
    auto pred = parseExpression("t0.c0 > 1");
    ASSERT_TRUE(pred.isOk());
    for (uint64_t salt : {0u, 1u, 7u, 99173u}) {
        auto first =
            chooseRewrite(*pred.value(), salt, profile, nullptr);
        auto second =
            chooseRewrite(*pred.value(), salt, profile, nullptr);
        ASSERT_TRUE(first.has_value());
        ASSERT_TRUE(second.has_value());
        EXPECT_STREQ(first->kind, second->kind);
        EXPECT_EQ(printExpr(*first->expr), printExpr(*second->expr));
    }
}

/** Random predicate generator for the equivalence property test. */
ExprPtr
randomPredicate(Rng &rng, int depth)
{
    auto column = [&rng]() -> ExprPtr {
        return std::make_unique<ColumnRefExpr>(
            "t0", rng.coin() ? "c0" : "c1");
    };
    auto literal = [&rng]() -> ExprPtr {
        switch (rng.below(4)) {
          case 0:
            return std::make_unique<LiteralExpr>(Value::null());
          case 1:
            return std::make_unique<LiteralExpr>(
                Value::text(rng.coin() ? "ab" : "_b%"));
          case 2:
            return std::make_unique<LiteralExpr>(
                Value::boolean(rng.coin()));
          default:
            return std::make_unique<LiteralExpr>(Value::integer(
                static_cast<int64_t>(rng.range(0, 5)) - 2));
        }
    };
    auto leaf = [&]() -> ExprPtr {
        return rng.coin() ? column() : literal();
    };
    if (depth <= 0)
        return leaf();

    switch (rng.below(6)) {
      case 0: {
        static const BinaryOp comparisons[] = {
            BinaryOp::Eq,        BinaryOp::NotEq,   BinaryOp::Less,
            BinaryOp::LessEq,    BinaryOp::Greater, BinaryOp::GreaterEq,
            BinaryOp::NullSafeEq};
        return std::make_unique<BinaryExpr>(
            comparisons[rng.below(7)], randomPredicate(rng, depth - 1),
            randomPredicate(rng, depth - 1));
      }
      case 1: {
        static const BinaryOp logic[] = {BinaryOp::And, BinaryOp::Or};
        return std::make_unique<BinaryExpr>(
            logic[rng.below(2)], randomPredicate(rng, depth - 1),
            randomPredicate(rng, depth - 1));
      }
      case 2: {
        static const BinaryOp arith[] = {BinaryOp::Add, BinaryOp::Sub,
                                         BinaryOp::Mul, BinaryOp::Div};
        return std::make_unique<BinaryExpr>(
            arith[rng.below(4)], leaf(), leaf());
      }
      case 3: {
        static const UnaryOp unaries[] = {
            UnaryOp::Not, UnaryOp::IsNull, UnaryOp::IsNotNull,
            UnaryOp::IsTrue, UnaryOp::IsFalse};
        return std::make_unique<UnaryExpr>(
            unaries[rng.below(5)], randomPredicate(rng, depth - 1));
      }
      case 4:
        return std::make_unique<BinaryExpr>(
            rng.coin() ? BinaryOp::Like : BinaryOp::NotLike, column(),
            std::make_unique<LiteralExpr>(
                Value::text(rng.coin() ? "_b" : "%a%")));
      default:
        return leaf();
    }
}

/**
 * The core EET soundness property: on a fault-free engine, *every*
 * enumerated rewrite of *every* predicate returns the same WHERE-lane
 * multiset as the original — and the same projection-lane multiset
 * when the predicate is boolean-rooted. 200 seeds, at least 500
 * individual rewrites exercised.
 */
TEST(EetPropertyTest, FiveHundredRewritesPreserveResults)
{
    DialectProfile profile = testProfile({});
    Connection conn(profile);
    seed(conn);

    auto base_ast = parseStatement("SELECT * FROM t0");
    ASSERT_TRUE(base_ast.isOk());
    const auto &base =
        static_cast<const SelectStmt &>(*base_ast.value());
    auto scan = conn.execute(eetStatsScanText(base));
    ASSERT_TRUE(scan.isOk());
    EetTableStats stats = computeTableStats(base, scan.value());

    auto with_where = [&base](const Expr &predicate) {
        SelectPtr query = base.cloneSelect();
        query->where = predicate.clone();
        return printSelect(*query);
    };
    auto projected = [&base](const Expr &flag) {
        SelectPtr query = base.cloneSelect();
        query->items.clear();
        SelectItem item;
        item.expr = flag.clone();
        item.alias = "eet";
        query->items.push_back(std::move(item));
        return printSelect(*query);
    };

    size_t where_checked = 0, projection_checked = 0, skipped = 0;
    for (uint64_t seed_value = 0; seed_value < 200; ++seed_value) {
        Rng rng(seed_value);
        ExprPtr predicate = randomPredicate(rng, 3);
        auto original = conn.execute(with_where(*predicate));
        if (!original.isOk()) {
            ++skipped; // runtime error (overflow, ...) — not EET's bug
            continue;
        }
        bool projectable = exprBooleanRooted(*predicate);
        StatusOr<ResultSet> original_projected =
            projectable
                ? conn.execute(projected(*predicate))
                : StatusOr<ResultSet>(
                      Status::runtimeError("projection lane unused"));

        for (const RewriteCandidate &candidate :
             enumerateRewrites(*predicate, profile, &stats)) {
            auto rewritten = conn.execute(with_where(*candidate.expr));
            if (!rewritten.isOk()) {
                ++skipped;
                continue;
            }
            EXPECT_TRUE(original.value().sameRowMultiset(
                rewritten.value()))
                << candidate.kind << " changed WHERE results for "
                << printExpr(*predicate);
            ++where_checked;

            if (!projectable || !original_projected.isOk())
                continue;
            auto rewritten_projected =
                conn.execute(projected(*candidate.expr));
            if (!rewritten_projected.isOk()) {
                ++skipped;
                continue;
            }
            EXPECT_TRUE(original_projected.value().sameRowMultiset(
                rewritten_projected.value()))
                << candidate.kind
                << " changed projected values for "
                << printExpr(*predicate);
            ++projection_checked;
        }
    }
    // The property must be exercised on a real sample, not vacuously.
    EXPECT_GE(where_checked, 500u);
    EXPECT_GE(projection_checked, 100u);
    EXPECT_LE(skipped, where_checked / 2);
}

TEST(EetCornerTest, AllNullColumnGetsNoTautologyOrProof)
{
    DialectProfile profile = testProfile({});
    Connection conn(profile);
    ASSERT_TRUE(
        conn.execute("CREATE TABLE nulls0 (c0 INT, c1 INT)").isOk());
    ASSERT_TRUE(conn.execute("INSERT INTO nulls0 VALUES (NULL, NULL), "
                             "(NULL, NULL), (NULL, 1)")
                    .isOk());
    EetTableStats stats = statsFor(conn, "SELECT * FROM nulls0");

    // c0 is all-NULL: nonNullCount == 0 disqualifies the tautology
    // lane (its BETWEEN bounds would be meaningless), and hasNull
    // blocks the null-free proof for both columns.
    const EetColumnStats *c0 = stats.find("c0");
    ASSERT_NE(c0, nullptr);
    EXPECT_TRUE(c0->hasNull);
    EXPECT_EQ(c0->nonNullCount, 0u);
    auto pred = parseExpression("nulls0.c0 = 1");
    ASSERT_TRUE(pred.isOk());
    std::set<std::string> kinds;
    for (const RewriteCandidate &candidate :
         enumerateRewrites(*pred.value(), profile, &stats)) {
        kinds.insert(candidate.kind);
        // The only tautology column may be c1 (one non-NULL value).
        if (std::strcmp(candidate.kind, "taut_range") == 0) {
            EXPECT_NE(printExpr(*candidate.expr).find("c1"),
                      std::string::npos);
        }
    }
    EXPECT_FALSE(kinds.count("is_true"));

    // End to end, the NULL-heavy table must still check clean.
    EetOracle eet;
    OracleResult result = runOracle(
        eet, conn, "SELECT * FROM nulls0", "nulls0.c0 = nulls0.c1");
    EXPECT_EQ(result.outcome, OracleOutcome::Passed) << result.details;
}

TEST(EetCornerTest, Int64BoundaryConstantsSurviveTheRewriteCycle)
{
    DialectProfile profile = testProfile({});
    Connection conn(profile);
    ASSERT_TRUE(conn.execute("CREATE TABLE edge0 (c0 INT)").isOk());
    ASSERT_TRUE(
        conn.execute("INSERT INTO edge0 VALUES "
                     "(-9223372036854775808), (9223372036854775807), "
                     "(0), (NULL)")
            .isOk());
    EetTableStats stats = statsFor(conn, "SELECT * FROM edge0");
    const EetColumnStats *c0 = stats.find("c0");
    ASSERT_NE(c0, nullptr);
    EXPECT_EQ(c0->minInt, INT64_MIN);
    EXPECT_EQ(c0->maxInt, INT64_MAX);

    // The tautology conjunct prints `BETWEEN -9223372036854775808 AND
    // 9223372036854775807` — INT64_MIN's printed form must survive the
    // print -> SQL text -> parse cycle the oracle's queries take.
    auto pred = parseExpression("edge0.c0 >= 0");
    ASSERT_TRUE(pred.isOk());
    bool saw_taut = false;
    for (const RewriteCandidate &candidate :
         enumerateRewrites(*pred.value(), profile, &stats)) {
        if (std::strcmp(candidate.kind, "taut_range") != 0)
            continue;
        saw_taut = true;
        std::string text = printExpr(*candidate.expr);
        auto reparsed = parseExpression(text);
        ASSERT_TRUE(reparsed.isOk()) << text;
        EXPECT_EQ(printExpr(*reparsed.value()), text);
    }
    EXPECT_TRUE(saw_taut);

    EetOracle eet;
    OracleResult result =
        runOracle(eet, conn, "SELECT * FROM edge0", "edge0.c0 >= 0");
    EXPECT_EQ(result.outcome, OracleOutcome::Passed) << result.details;
}

TEST(EetOracleTest, PassesOnCleanEngine)
{
    DialectProfile profile = testProfile({});
    Connection conn(profile);
    seed(conn);
    EetOracle eet;
    const char *predicates[] = {
        "t0.c0 > 1",        "t0.c0 IS NULL",  "NOT (t0.c0 = 2)",
        "t0.c1 LIKE '%a%'", "t0.c0 BETWEEN 1 AND 2",
        "t0.c0 IN (1, NULL)", "t0.c0 + 1 = 3",
    };
    for (const char *p : predicates) {
        OracleResult result =
            runOracle(eet, conn, "SELECT * FROM t0", p);
        EXPECT_EQ(result.outcome, OracleOutcome::Passed)
            << p << ": " << result.details;
        // Stats scan + two WHERE-lane queries, plus two projection-lane
        // queries when the predicate is boolean-rooted.
        EXPECT_GE(result.queries.size(), 3u) << p;
    }
}

TEST(EetOracleTest, PassesOnDuplicateRowsAndOrderedBases)
{
    // Repeated rows must be matched one for one, whatever their order.
    DialectProfile profile = testProfile({});
    Connection conn(profile);
    seed(conn);
    ASSERT_TRUE(conn.execute("INSERT INTO t0 VALUES (1, 'a'), (2, 'b'), "
                             "(NULL, 'd')")
                    .isOk());
    EetOracle eet;
    for (const char *base :
         {"SELECT t0.c1 FROM t0", "SELECT * FROM t0 ORDER BY t0.c1 DESC",
          "SELECT t0.c0 FROM t0 ORDER BY t0.c0 ASC LIMIT 3"}) {
        for (const char *p : {"t0.c0 > 1", "t0.c0 IS NULL"}) {
            OracleResult result = runOracle(eet, conn, base, p);
            EXPECT_EQ(result.outcome, OracleOutcome::Passed)
                << base << " / " << p << ": " << result.details;
        }
    }
}

TEST(EetOracleTest, DeterministicAcrossRepeatedChecks)
{
    DialectProfile profile = testProfile({});
    Connection conn(profile);
    seed(conn);
    EetOracle eet;
    OracleResult first =
        runOracle(eet, conn, "SELECT * FROM t0", "t0.c0 > 1");
    OracleResult second =
        runOracle(eet, conn, "SELECT * FROM t0", "t0.c0 > 1");
    EXPECT_EQ(first.outcome, second.outcome);
    EXPECT_EQ(first.queries, second.queries);
}

TEST(EetOracleTest, SkipsWhenScanFails)
{
    DialectProfile profile = testProfile({});
    Connection conn(profile);
    EetOracle eet;
    OracleResult result =
        runOracle(eet, conn, "SELECT * FROM missing", "1 = 1");
    EXPECT_EQ(result.outcome, OracleOutcome::Skipped);
    EXPECT_NE(result.details.find("stats scan failed"),
              std::string::npos);
}

TEST(EetOracleTest, InapplicableWhenDialectLacksWrapperOperators)
{
    // Strip every operator the rewriter can build wrappers from; the
    // oracle must report Inapplicable (says nothing about the dialect),
    // not Skipped and never a false Bug.
    DialectProfile profile = testProfile({});
    profile.binaryOps.erase(BinaryOp::And);
    profile.binaryOps.erase(BinaryOp::Or);
    profile.unaryOps.erase(UnaryOp::Not);
    profile.unaryOps.erase(UnaryOp::IsTrue);
    profile.unaryOps.erase(UnaryOp::IsNotFalse);
    profile.unaryOps.erase(UnaryOp::IsNull);
    Connection conn(profile);
    seed(conn);
    EetOracle eet;
    OracleResult result =
        runOracle(eet, conn, "SELECT * FROM t0", "t0.c0 > 1");
    EXPECT_EQ(result.outcome, OracleOutcome::Inapplicable)
        << result.details;
}

TEST(EetOracleTest, CatchesDoubleNegNullFalseAloneAmongOracles)
{
    // The root-keyed double-negation fault: NOT (NOT p) at an
    // evaluation root collapses NULL to FALSE. WHERE roots exclude the
    // row either way and rectified/partition wrappers never place the
    // double NOT at a root, so TLP, NoREC and PQS all pass; EET's
    // projection lane evaluates the doubly-negated predicate as a
    // value and sees FALSE where the original projects NULL.
    DialectProfile profile = testProfile({FaultId::DoubleNegNullFalse});
    // Funnel the salt-driven choice to not_not: no BOOL literals (kills
    // and_true/or_false), a join base (no stats, kills taut_range), and
    // a NULL-capable predicate (kills the IS-family wrappers).
    profile.dataTypes.erase(DataType::Bool);
    Connection conn(profile);
    seed(conn);
    ASSERT_TRUE(conn.execute("CREATE TABLE t1 (c0 INT)").isOk());
    ASSERT_TRUE(
        conn.execute("INSERT INTO t1 VALUES (1), (NULL)").isOk());

    const char *base =
        "SELECT * FROM t0 INNER JOIN t1 ON (1 = 1)";
    const char *predicate = "t0.c0 = t1.c0";

    EetOracle eet;
    OracleResult bug = runOracle(eet, conn, base, predicate);
    EXPECT_EQ(bug.outcome, OracleOutcome::Bug) << bug.details;
    EXPECT_NE(bug.details.find("not_not"), std::string::npos)
        << bug.details;

    TlpOracle tlp;
    EXPECT_NE(runOracle(tlp, conn, base, predicate).outcome,
              OracleOutcome::Bug);
    NorecOracle norec;
    EXPECT_NE(runOracle(norec, conn, base, predicate).outcome,
              OracleOutcome::Bug);
    PqsOracle pqs; // joins are outside PQS's domain
    EXPECT_EQ(runOracle(pqs, conn, base, predicate).outcome,
              OracleOutcome::Inapplicable);
}

TEST(EetOracleTest, CatchesConstFoldTrueAbsorbsAnd)
{
    // The absorbing-element folding bug only fires on the exact tree
    // EET's and_true wrapper emits: WHERE <x> AND TRUE -> TRUE.
    DialectProfile profile =
        testProfile({FaultId::ConstFoldTrueAbsorbsAnd});
    // Funnel the choice to and_true.
    profile.binaryOps.erase(BinaryOp::Or);
    profile.unaryOps.erase(UnaryOp::Not);
    profile.unaryOps.erase(UnaryOp::IsTrue);
    profile.unaryOps.erase(UnaryOp::IsNotFalse);
    Connection conn(profile);
    seed(conn);
    ASSERT_TRUE(conn.execute("CREATE TABLE t1 (c0 INT)").isOk());
    ASSERT_TRUE(conn.execute("INSERT INTO t1 VALUES (1), (2)").isOk());

    const char *base =
        "SELECT * FROM t0 INNER JOIN t1 ON (1 = 1)";
    EetOracle eet;
    OracleResult bug = runOracle(eet, conn, base, "t0.c0 = 1");
    EXPECT_EQ(bug.outcome, OracleOutcome::Bug) << bug.details;
    EXPECT_NE(bug.details.find("and_true"), std::string::npos)
        << bug.details;
}

TEST(EetCampaignTest, InapplicableExcludedFromValidityFeedback)
{
    // A dialect with none of the wrapper operators makes every EET
    // check Inapplicable. Inapplicable says nothing about the dialect:
    // it must be tallied separately and never against the validity
    // rate the generator steers by, and it must never masquerade as a
    // bug.
    DialectProfile profile = testProfile({});
    profile.name = "eet-inapplicable";
    profile.binaryOps.erase(BinaryOp::And);
    profile.binaryOps.erase(BinaryOp::Or);
    profile.unaryOps.erase(UnaryOp::Not);
    profile.unaryOps.erase(UnaryOp::IsTrue);
    profile.unaryOps.erase(UnaryOp::IsNotFalse);
    profile.unaryOps.erase(UnaryOp::IsNull);

    CampaignConfig config;
    config.seed = 20260808;
    config.checks = 200;
    config.oracles = {"EET"};
    config.mode = GeneratorMode::Baseline;
    CampaignRunner runner(config, profile);
    CampaignStats stats = runner.run();
    EXPECT_GT(stats.checksAttempted, 0u);
    EXPECT_GT(stats.checksInapplicable, 0u);
    EXPECT_EQ(stats.bugsDetected, 0u);
    EXPECT_TRUE(stats.bugsByOracle.empty());
    // Checks where the only outcome was Inapplicable still count as
    // valid (every issued query executed) — the tally is orthogonal.
    EXPECT_GT(stats.checksValid, 0u);
}

TEST(EetCampaignTest, PrioritizerAttributesEetBugs)
{
    // Same fixture as the fault-matrix grid row that is EET-only: the
    // root-keyed double-negation fault. The campaign must attribute
    // every detection to EET — per-oracle tallies, BugCase::oracle and
    // the ORACLE_EET feature the prioritizer dedups by.
    DialectProfile profile = *findDialect("postgres-like");
    profile.name = "eet-attribution";
    profile.behavior.staticTyping = false;
    profile.binaryOps.insert(BinaryOp::NullSafeEq);
    profile.faults = FaultSet();
    profile.faults.enable(FaultId::DoubleNegNullFalse);

    CampaignConfig config;
    config.seed = 99173;
    config.checks = 2000;
    config.oracles = {"TLP", "NOREC", "PQS", "EET"};
    config.mode = GeneratorMode::Baseline;
    CampaignRunner runner(config, profile);
    CampaignStats stats = runner.run();

    ASSERT_GT(stats.bugsDetected, 0u);
    EXPECT_GT(stats.bugsByOracle["EET"], 0u);
    EXPECT_EQ(stats.bugsByOracle.count("TLP"), 0u);
    EXPECT_EQ(stats.bugsByOracle.count("NOREC"), 0u);
    EXPECT_EQ(stats.bugsByOracle.count("PQS"), 0u);
    ASSERT_GT(stats.prioritizedBugs.size(), 0u);
    for (const BugCase &bug : stats.prioritizedBugs) {
        EXPECT_EQ(bug.oracle, "EET");
        bool attributed = false;
        for (const std::string &name : bug.featureNames)
            attributed = attributed || name == "ORACLE_EET";
        EXPECT_TRUE(attributed)
            << "prioritized bug lacks the ORACLE_EET feature";
    }
}

TEST(EetCampaignTest, SilentOnFaultFreeReferenceDialect)
{
    CampaignConfig config;
    config.dialect = "postgres-like";
    config.seed = 20260808;
    config.checks = 300;
    config.oracles = {"EET"};
    CampaignRunner runner(config);
    CampaignStats stats = runner.run();
    EXPECT_EQ(stats.bugsDetected, 0u)
        << "EET false positive on the fault-free reference dialect";
    EXPECT_TRUE(stats.bugsByOracle.empty());
    EXPECT_GT(stats.checksAttempted, 0u);
}

} // namespace
} // namespace sqlpp

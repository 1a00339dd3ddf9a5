/**
 * @file
 * Reducer tests: setup-statement elimination and predicate shrinking,
 * both against synthetic replay predicates and a real buggy dialect.
 */
#include <gtest/gtest.h>

#include "core/campaign.h"
#include "core/reducer.h"
#include "parser/parser.h"

namespace sqlpp {
namespace {

TEST(ReducerTest, DropsIrrelevantSetupStatements)
{
    BugCase bug;
    bug.setup = {"KEEP-1", "junk-a", "KEEP-2", "junk-b", "junk-c"};
    bug.predicateText = "TRUE";
    // Bug "reproduces" iff both KEEP statements are present.
    auto replay = [](const BugCase &candidate) {
        int keeps = 0;
        for (const std::string &statement : candidate.setup) {
            if (statement.rfind("KEEP", 0) == 0)
                ++keeps;
        }
        return keeps == 2;
    };
    ReduceStats stats = reduceBugCase(bug, replay);
    EXPECT_EQ(stats.setupBefore, 5u);
    EXPECT_EQ(stats.setupAfter, 2u);
    ASSERT_EQ(bug.setup.size(), 2u);
    EXPECT_EQ(bug.setup[0], "KEEP-1");
    EXPECT_EQ(bug.setup[1], "KEEP-2");
}

TEST(ReducerTest, ShrinksPredicateToRelevantCore)
{
    BugCase bug;
    bug.predicateText =
        "((c0 > 5) AND ((c1 LIKE 'x%') OR (SIN(c0) = 9)))";
    // Bug reproduces whenever the predicate still mentions c0 > 5.
    auto replay = [](const BugCase &candidate) {
        return candidate.predicateText.find("c0 > 5") !=
               std::string::npos;
    };
    ReduceStats stats = reduceBugCase(bug, replay);
    EXPECT_LT(stats.predicateNodesAfter, stats.predicateNodesBefore);
    EXPECT_EQ(bug.predicateText, "(c0 > 5)");
}

TEST(ReducerTest, LeavesUnreducibleCaseIntact)
{
    BugCase bug;
    bug.setup = {"A", "B"};
    bug.predicateText = "(c0 = 1)";
    // Everything is load-bearing.
    auto replay = [](const BugCase &candidate) {
        return candidate.setup.size() == 2 &&
               candidate.predicateText == "(c0 = 1)";
    };
    ReduceStats stats = reduceBugCase(bug, replay);
    EXPECT_EQ(bug.setup.size(), 2u);
    EXPECT_EQ(stats.setupAfter, 2u);
    EXPECT_EQ(bug.predicateText, "(c0 = 1)");
}

TEST(ReducerTest, ContinuesScanInsteadOfRestarting)
{
    // Regression: phase 1 used to restart from index 0 after every
    // successful elimination, re-replaying prefixes already proven
    // necessary. With a necessary head statement and k junk tails the
    // old scan cost O(k^2) replays; the fixed scan is linear.
    BugCase bug;
    bug.setup.push_back("KEEP");
    for (int i = 0; i < 10; ++i)
        bug.setup.push_back("junk-" + std::to_string(i));
    bug.predicateText = "TRUE";
    auto replay = [](const BugCase &candidate) {
        for (const std::string &statement : candidate.setup) {
            if (statement == "KEEP")
                return true;
        }
        return false;
    };
    ReduceStats stats = reduceBugCase(bug, replay);
    ASSERT_EQ(bug.setup.size(), 1u);
    EXPECT_EQ(bug.setup[0], "KEEP");
    // Pass 1: 1 failed KEEP probe + 10 eliminations; pass 2 (fixed
    // point): 1 failed probe. The old restart-from-zero scan needed a
    // KEEP re-probe before every elimination (~22 replays).
    EXPECT_LE(stats.replays, 12u);
}

TEST(ReducerTest, TxnBlocksAreAtomicEliminationUnits)
{
    // A BEGIN … COMMIT/ROLLBACK block is removed (or kept) whole.
    // The replay predicate rejects any candidate with unbalanced
    // transaction control, so per-statement elimination would wedge:
    // dropping only "BEGIN" or only "COMMIT" never reproduces, and the
    // block's interior statements would survive as dead weight.
    BugCase bug;
    bug.setup = {
        "CREATE TABLE t0 (a INT)",       // load-bearing
        "BEGIN",                         // block 1: irrelevant
        "INSERT INTO t9 VALUES (1)",
        "INSERT INTO t9 VALUES (2)",
        "COMMIT",
        "begin transaction",             // block 2: irrelevant, mixed
        "INSERT INTO t9 VALUES (3)",     // case + ROLLBACK TO inside
        "ROLLBACK TO sp0",
        "Rollback",
        "INSERT INTO t0 VALUES (7)",     // load-bearing
    };
    bug.predicateText = "TRUE";
    auto replay = [](const BugCase &candidate) {
        int depth = 0;
        bool sawTable = false, sawInsert = false;
        for (const std::string &statement : candidate.setup) {
            if (statement == "BEGIN" ||
                statement == "begin transaction") {
                if (depth != 0)
                    return false; // nested BEGIN: malformed
                depth = 1;
            } else if (statement == "COMMIT" ||
                       statement == "Rollback") {
                if (depth != 1)
                    return false; // dangling COMMIT/ROLLBACK
                depth = 0;
            } else if (statement.rfind("CREATE TABLE t0", 0) == 0) {
                sawTable = true;
            } else if (statement.rfind("INSERT INTO t0", 0) == 0) {
                sawInsert = true;
            }
        }
        return depth == 0 && sawTable && sawInsert;
    };
    ASSERT_TRUE(replay(bug));
    ReduceStats stats = reduceBugCase(bug, replay);
    EXPECT_EQ(stats.setupBefore, 10u);
    ASSERT_EQ(bug.setup.size(), 2u);
    EXPECT_EQ(bug.setup[0], "CREATE TABLE t0 (a INT)");
    EXPECT_EQ(bug.setup[1], "INSERT INTO t0 VALUES (7)");
}

TEST(ReducerTest, TxnUnitsCoverEveryFormTheParserAccepts)
{
    // Transaction control is recognised in every spelling the parser
    // accepts: a trailing ";", any whitespace between words, any case.
    // "ROLLBACK TO sp;" rolls back to a savepoint and does not end the
    // block. The replay predicate tracks blocks by parsed statement
    // kind and rejects unbalanced transaction control, so a reducer
    // that split a block would keep its BEGIN and COMMIT behind.
    BugCase bug;
    bug.setup = {
        "CREATE TABLE t0 (a INT)",       // load-bearing
        "BEGIN;",                        // block 1: irrelevant
        "INSERT INTO t9 VALUES (1)",
        "COMMIT;",
        "BEGIN\tTRANSACTION",            // block 2: irrelevant
        "SAVEPOINT sp",
        "INSERT INTO t9 VALUES (2)",
        "ROLLBACK TO sp;",
        "INSERT INTO t9 VALUES (3)",
        "ROLLBACK;",
        "INSERT INTO t0 VALUES (7)",     // load-bearing
    };
    bug.predicateText = "TRUE";
    auto replay = [](const BugCase &candidate) {
        int depth = 0;
        bool sawTable = false, sawInsert = false;
        for (const std::string &statement : candidate.setup) {
            auto parsed = parseStatement(statement);
            if (!parsed.isOk())
                return false;
            StmtKind kind = parsed.value()->kind();
            if (kind == StmtKind::Begin) {
                if (depth != 0)
                    return false; // nested BEGIN: malformed
                depth = 1;
            } else if (kind == StmtKind::Commit ||
                       kind == StmtKind::Rollback) {
                if (depth != 1)
                    return false; // dangling COMMIT/ROLLBACK
                depth = 0;
            } else if (kind == StmtKind::Savepoint ||
                       kind == StmtKind::RollbackTo) {
                if (depth != 1)
                    return false; // savepoint outside a block
            } else if (statement.rfind("CREATE TABLE t0", 0) == 0) {
                sawTable = true;
            } else if (statement.rfind("INSERT INTO t0", 0) == 0) {
                sawInsert = true;
            }
        }
        return depth == 0 && sawTable && sawInsert;
    };
    ASSERT_TRUE(replay(bug));
    ReduceStats stats = reduceBugCase(bug, replay);
    EXPECT_EQ(stats.setupBefore, 11u);
    ASSERT_EQ(bug.setup.size(), 2u);
    EXPECT_EQ(bug.setup[0], "CREATE TABLE t0 (a INT)");
    EXPECT_EQ(bug.setup[1], "INSERT INTO t0 VALUES (7)");
}

TEST(ReducerTest, UnterminatedTxnBlockExtendsToEnd)
{
    // An unmatched BEGIN swallows the rest of the setup as one unit;
    // the reducer either drops the whole tail or keeps it intact, but
    // never leaves a dangling BEGIN over a subset of its statements.
    BugCase bug;
    bug.setup = {
        "KEEP",
        "BEGIN",
        "INSERT INTO t9 VALUES (1)",
        "INSERT INTO t9 VALUES (2)",
    };
    bug.predicateText = "TRUE";
    auto replay = [](const BugCase &candidate) {
        for (const std::string &statement : candidate.setup) {
            if (statement == "KEEP")
                return true;
        }
        return false;
    };
    ReduceStats stats = reduceBugCase(bug, replay);
    EXPECT_EQ(stats.setupAfter, 1u);
    ASSERT_EQ(bug.setup.size(), 1u);
    EXPECT_EQ(bug.setup[0], "KEEP");
}

TEST(ReducerTest, RespectsReplayBudget)
{
    BugCase bug;
    for (int i = 0; i < 50; ++i)
        bug.setup.push_back("junk-" + std::to_string(i));
    bug.setup.push_back("KEEP");
    bug.predicateText = "TRUE";
    size_t replays = 0;
    auto replay = [&replays](const BugCase &candidate) {
        ++replays;
        for (const std::string &statement : candidate.setup) {
            if (statement == "KEEP")
                return true;
        }
        return false;
    };
    ReduceStats stats = reduceBugCase(bug, replay, /*max_replays=*/30);
    EXPECT_LE(stats.replays, 30u);
}

TEST(ReducerTest, EndToEndAgainstBuggyDialect)
{
    // Build a real bug case on the sqlite-like dialect (Listing 3's
    // context-dependent comparison) padded with irrelevant setup, then
    // reduce it with the campaign replay function.
    const DialectProfile *sqlite = findDialect("sqlite-like");
    ASSERT_NE(sqlite, nullptr);
    BugCase bug;
    bug.dialect = sqlite->name;
    bug.oracle = "TLP";
    bug.setup = {
        "CREATE TABLE t9 (z INT)",          // irrelevant
        "CREATE TABLE t0 (c0 TEXT)",        // load-bearing
        "INSERT INTO t9 VALUES (5)",        // irrelevant
        "INSERT INTO t0 (c0) VALUES (1)",   // load-bearing
        "CREATE INDEX i9 ON t9(z)",         // irrelevant
    };
    bug.baseText = "SELECT * FROM t0";
    bug.predicateText = "((t0.c0 = REPLACE(1, '', 0)) OR FALSE)";
    ASSERT_TRUE(CampaignRunner::reproduces(*sqlite, bug));

    ReduceStats stats = reduceBugCase(bug, [&](const BugCase &candidate) {
        return CampaignRunner::reproduces(*sqlite, candidate);
    });
    EXPECT_EQ(stats.setupAfter, 2u);
    EXPECT_LE(stats.predicateNodesAfter, stats.predicateNodesBefore);
    // The reduced case still reproduces.
    EXPECT_TRUE(CampaignRunner::reproduces(*sqlite, bug));
    // The irrelevant table is gone.
    for (const std::string &statement : bug.setup)
        EXPECT_EQ(statement.find("t9"), std::string::npos) << statement;
}

TEST(ReducerTest, ReducedReproCarriesFullQueryList)
{
    // Regression: a reduced BugCase used to keep the query list from
    // the *original* detection, whose statement texts no longer match
    // the shrunken predicate. The campaign now replays the reduced
    // case and stores the replay's queries, so the repro is
    // self-contained — including probes that failed mid-check (the
    // NoREC IS TRUE attempt on a dialect without it also used to be
    // dropped entirely).
    const DialectProfile *sqlite = findDialect("sqlite-like");
    ASSERT_NE(sqlite, nullptr);
    BugCase bug;
    bug.dialect = sqlite->name;
    bug.oracle = "TLP";
    bug.setup = {
        "CREATE TABLE t9 (z INT)",          // irrelevant
        "CREATE TABLE t0 (c0 TEXT)",        // load-bearing
        "INSERT INTO t0 (c0) VALUES (1)",   // load-bearing
    };
    bug.baseText = "SELECT * FROM t0";
    bug.predicateText = "((t0.c0 = REPLACE(1, '', 0)) OR FALSE)";
    ASSERT_TRUE(CampaignRunner::reproduces(*sqlite, bug));

    (void)reduceBugCase(bug, [&](const BugCase &candidate) {
        return CampaignRunner::reproduces(*sqlite, candidate);
    });

    // Replaying the reduced case yields the exact statements a repro
    // report needs; every one must mention the reduced predicate's
    // core, not the original "OR FALSE" padding.
    OracleResult replay;
    ASSERT_TRUE(CampaignRunner::reproduces(*sqlite, bug, &replay));
    EXPECT_EQ(replay.outcome, OracleOutcome::Bug);
    ASSERT_FALSE(replay.queries.empty());
    for (const std::string &query : replay.queries)
        EXPECT_EQ(query.find("OR FALSE"), std::string::npos) << query;
}

TEST(ReducerTest, CampaignBugsRecordQueries)
{
    // End-to-end: every bug a campaign reports carries the statements
    // that demonstrate it, even after reduction rewrote the case.
    CampaignConfig config;
    config.dialect = "sqlite-like";
    config.seed = 7;
    config.checks = 200;
    config.setupStatements = 30;
    config.oracles = {"TLP", "NOREC", "PQS"};
    CampaignRunner runner(config);
    CampaignStats stats = runner.run();
    ASSERT_GT(stats.prioritizedBugs.size(), 0u);
    for (const BugCase &bug : stats.prioritizedBugs) {
        EXPECT_FALSE(bug.queries.empty())
            << bug.oracle << " repro lost its query list";
    }
}

} // namespace
} // namespace sqlpp

/**
 * @file
 * StatementCache tests: one parse per distinct text across every
 * connection that shares a cache, errors cached with their exact
 * Status, REFRESH left to the dialect adapter, and a reducer whose
 * replays share one cache reducing exactly as one that parses afresh.
 */
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/campaign.h"
#include "core/reducer.h"
#include "dialect/connection.h"
#include "parser/parser.h"
#include "parser/statement_cache.h"

namespace sqlpp {
namespace {

const DialectProfile &
dialect(const char *name)
{
    const DialectProfile *profile = findDialect(name);
    EXPECT_NE(profile, nullptr) << name;
    return *profile;
}

TEST(StatementCacheTest, SameTextThroughTwoConnectionsParsesOnce)
{
    StatementCache cache;
    const DialectProfile &sqlite = dialect("sqlite-like");
    for (int replay = 0; replay < 2; ++replay) {
        Connection connection(sqlite, {}, &cache);
        ASSERT_TRUE(
            connection.execute("CREATE TABLE t0 (c0 INT)").isOk());
        ASSERT_TRUE(
            connection.execute("INSERT INTO t0 VALUES (1)").isOk());
        auto rows = connection.execute("SELECT * FROM t0");
        ASSERT_TRUE(rows.isOk());
        // Each replay runs on a fresh database.
        EXPECT_EQ(rows.value().rowCount(), 1u);
    }
    EXPECT_EQ(cache.parses(), 3u);
}

TEST(StatementCacheTest, SyntaxErrorIsCachedWithItsExactStatus)
{
    const std::string text = "SELECT * FROM t0 WHERE";
    auto direct = parseStatement(text);
    ASSERT_FALSE(direct.isOk());

    StatementCache cache;
    const DialectProfile &sqlite = dialect("sqlite-like");
    for (int replay = 0; replay < 3; ++replay) {
        Connection connection(sqlite, {}, &cache);
        auto result = connection.execute(text);
        ASSERT_FALSE(result.isOk());
        EXPECT_EQ(result.status().code(), ErrorCode::SyntaxError);
        EXPECT_EQ(result.status().code(), direct.status().code());
        EXPECT_EQ(result.status().message(), direct.status().message());
    }
    EXPECT_EQ(cache.parses(), 1u);
    // The cached outcome is the one object, handed out every time.
    EXPECT_EQ(&cache.parse(text), &cache.parse(text));
}

TEST(StatementCacheTest, RefreshIsHandledByTheAdapterNotTheCache)
{
    StatementCache cache;
    Connection crate(dialect("cratedb-like"), {}, &cache);
    ASSERT_TRUE(crate.execute("CREATE TABLE t0 (c0 INT)").isOk());
    // The adapter issues REFRESH after the INSERT, so the row is
    // visible; neither REFRESH reaches the cache.
    ASSERT_TRUE(crate.executeAdapted("INSERT INTO t0 VALUES (1)").isOk());
    ASSERT_TRUE(crate.execute("INSERT INTO t0 VALUES (2)").isOk());
    EXPECT_EQ(crate.pendingRows(), 1u);
    ASSERT_TRUE(crate.execute("REFRESH t0").isOk());
    EXPECT_EQ(crate.pendingRows(), 0u);
    auto rows = crate.execute("SELECT * FROM t0");
    ASSERT_TRUE(rows.isOk());
    EXPECT_EQ(rows.value().rowCount(), 2u);
    EXPECT_EQ(crate.statementsIssued(), 6u);
    EXPECT_EQ(cache.parses(), 4u);

    // Where REFRESH is not a statement, the dialect rejects it before
    // any parse.
    Connection sqlite(dialect("sqlite-like"), {}, &cache);
    auto refused = sqlite.execute("REFRESH t0");
    ASSERT_FALSE(refused.isOk());
    EXPECT_EQ(refused.status().code(), ErrorCode::SyntaxError);
    EXPECT_EQ(cache.parses(), 4u);
}

/** A TLP bug on sqlite-like, padded with setup the reducer drops. */
BugCase
paddedBug()
{
    BugCase bug;
    bug.dialect = "sqlite-like";
    bug.oracle = "TLP";
    bug.setup = {
        "CREATE TABLE t9 (z INT)",
        "CREATE TABLE t0 (c0 TEXT)",
        "INSERT INTO t9 VALUES (5)",
        "INSERT INTO t0 (c0) VALUES (1)",
        "CREATE INDEX i9 ON t9(z)",
        "INSERT INTO t9 VALUES (6)",
        "INSERT INTO t0 (c0) VALUES ('x')",
    };
    bug.baseText = "SELECT * FROM t0";
    bug.predicateText =
        "(((t0.c0 = REPLACE(1, '', 0)) OR FALSE) AND (NOT NULL IS NULL "
        "OR TRUE))";
    return bug;
}

/** What the replays of one reduction ran. */
struct ReplayLog
{
    /** Distinct texts: setup statements and oracle queries. */
    std::set<std::string> texts;
    /** Statements executed, repeats included. */
    size_t statements = 0;
};

/** Reduce, then refresh the queries from a final replay, as run() does. */
ReduceStats
reduceAndReplay(BugCase &bug, StatementCache *cache, ReplayLog &log)
{
    const DialectProfile &sqlite = dialect("sqlite-like");
    auto replay = [&](const BugCase &candidate, OracleResult &result) {
        bool is_bug = CampaignRunner::reproduces(sqlite, candidate,
                                                 &result, cache);
        log.texts.insert(candidate.setup.begin(), candidate.setup.end());
        log.texts.insert(result.queries.begin(), result.queries.end());
        log.statements += candidate.setup.size() + result.queries.size();
        return is_bug;
    };
    ReduceStats stats = reduceBugCase(bug, [&](const BugCase &candidate) {
        OracleResult ignored;
        return replay(candidate, ignored);
    });
    OracleResult final_replay;
    EXPECT_TRUE(replay(bug, final_replay));
    bug.queries = std::move(final_replay.queries);
    return stats;
}

TEST(StatementCacheTest, SharedCacheReducesExactlyLikeFreshParses)
{
    BugCase fresh = paddedBug();
    BugCase cached = paddedBug();
    ASSERT_TRUE(
        CampaignRunner::reproduces(dialect("sqlite-like"), fresh));

    ReplayLog fresh_log, cached_log;
    ReduceStats fresh_stats = reduceAndReplay(fresh, nullptr, fresh_log);
    StatementCache cache;
    ReduceStats cached_stats = reduceAndReplay(cached, &cache, cached_log);

    EXPECT_EQ(cached, fresh);
    EXPECT_EQ(cached_stats, fresh_stats);
    EXPECT_EQ(fresh.setup.size(), 2u);
    EXPECT_LT(fresh_stats.predicateNodesAfter,
              fresh_stats.predicateNodesBefore);

    // The count the replay-scoped cache exists for: 17 replays run 109
    // statements (setup writes and oracle queries), and the cache
    // parses only the 31 distinct texts among them.
    EXPECT_EQ(fresh_stats.replays + 1, 17u);
    EXPECT_EQ(cached_log.statements, 109u);
    EXPECT_EQ(cached_log.texts.size(), 31u);
    EXPECT_EQ(cache.parses(), cached_log.texts.size());
}

} // namespace
} // namespace sqlpp

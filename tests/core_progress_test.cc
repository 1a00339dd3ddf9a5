/**
 * @file
 * ProgressBoard tests: snapshot aggregation, shard lifecycle, stall
 * diagnosis, seqlock strings, and the two renderers (/status JSON and
 * the --progress line) fed from the same snapshot.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "core/progress.h"

namespace sqlpp {
namespace {

class ProgressTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // beginCampaign zeroes every cell, so each test starts clean.
        ProgressBoard::instance().beginCampaign(/*workers=*/2,
                                                /*shards=*/3,
                                                /*checks_target=*/300);
        ProgressBoard::instance().setStallThresholdSeconds(10.0);
    }
};

TEST_F(ProgressTest, SnapshotAggregatesShardCells)
{
    ProgressBoard &board = ProgressBoard::instance();
    board.initShard(0, "sqlite-like", 7, 100, 0.0);
    board.initShard(1, "slice1", 8, 100, 2.5);
    board.initShard(2, "slice2", 9, 100, 0.0);
    board.setShardState(0, ShardState::Running);

    {
        ShardScope scope(0, "sqlite-like");
        progress::noteSetup(true);
        progress::noteSetup(false);
        progress::noteCheck(true, 11);
        progress::noteCheck(false, 12);
        progress::noteBug();
        progress::noteTotals(5, 2, 1);
    }
    board.setShardState(0, ShardState::Done);

    CampaignProgress snapshot = board.snapshot();
    EXPECT_TRUE(snapshot.active);
    EXPECT_EQ(snapshot.workers, 2u);
    EXPECT_EQ(snapshot.shardsTotal, 3u);
    EXPECT_EQ(snapshot.shardsDone, 1u);
    EXPECT_EQ(snapshot.checksTarget, 300u);
    EXPECT_EQ(snapshot.checksAttempted, 2u);
    EXPECT_EQ(snapshot.checksValid, 1u);
    EXPECT_EQ(snapshot.bugsDetected, 1u);
    EXPECT_EQ(snapshot.plans, 5u);
    EXPECT_EQ(snapshot.resourceErrors, 2u);

    ASSERT_EQ(snapshot.shards.size(), 3u);
    const ShardProgress &shard = snapshot.shards[0];
    EXPECT_EQ(shard.label, "sqlite-like");
    EXPECT_EQ(shard.state, ShardState::Done);
    EXPECT_EQ(shard.seed, 7u);
    EXPECT_EQ(shard.checksTarget, 100u);
    EXPECT_EQ(shard.checksAttempted, 2u);
    EXPECT_EQ(shard.checksValid, 1u);
    EXPECT_EQ(shard.bugsDetected, 1u);
    EXPECT_EQ(shard.plans, 5u);
    EXPECT_EQ(shard.suppressed, 1u);
    EXPECT_EQ(shard.setupGenerated, 2u);
    EXPECT_EQ(shard.setupSucceeded, 1u);
    EXPECT_EQ(shard.tick, 12u);
    EXPECT_DOUBLE_EQ(shard.validityRate(), 0.5);
    EXPECT_FALSE(shard.stalled);
    EXPECT_EQ(snapshot.shards[1].label, "slice1");
    EXPECT_DOUBLE_EQ(snapshot.shards[1].deadlineSeconds, 2.5);
    EXPECT_EQ(snapshot.shards[1].state, ShardState::Pending);
}

TEST_F(ProgressTest, FinishCampaignFreezesButKeepsCells)
{
    ProgressBoard &board = ProgressBoard::instance();
    board.initShard(0, "sqlite-like", 7, 100, 0.0);
    {
        ShardScope scope(0, "sqlite-like");
        progress::noteCheck(true, 1);
    }
    board.finishCampaign();
    CampaignProgress snapshot = board.snapshot();
    EXPECT_FALSE(snapshot.active);
    EXPECT_EQ(snapshot.checksAttempted, 1u); // final scrape still works
}

TEST_F(ProgressTest, StallVerdictAppearsAndClears)
{
    ProgressBoard &board = ProgressBoard::instance();
    board.initShard(0, "wedged", 7, 100, 0.0);
    board.setShardState(0, ShardState::Running);
    board.setStallThresholdSeconds(0.02);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));

    // Never advanced: age falls back to the campaign start.
    CampaignProgress stalled = board.snapshot();
    ASSERT_EQ(stalled.shards.size(), 3u);
    EXPECT_TRUE(stalled.shards[0].stalled);
    EXPECT_GT(stalled.shards[0].lastAdvanceSeconds, 0.0);

    // One check clears the verdict; a generous threshold keeps it so.
    board.setStallThresholdSeconds(100.0);
    {
        ShardScope scope(0, "wedged");
        progress::noteCheck(true, 1);
    }
    EXPECT_FALSE(board.snapshot().shards[0].stalled);

    // Done shards are never stalled, no matter how silent.
    board.setStallThresholdSeconds(0.02);
    board.setShardState(0, ShardState::Done);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    EXPECT_FALSE(board.snapshot().shards[0].stalled);
}

TEST_F(ProgressTest, AbandonedStateComesFromTheHotPath)
{
    ProgressBoard &board = ProgressBoard::instance();
    board.initShard(1, "slice1", 8, 100, 1.0);
    board.setShardState(1, ShardState::Running);
    {
        ShardScope scope(1, "slice1");
        progress::noteAbandoned();
    }
    CampaignProgress snapshot = board.snapshot();
    EXPECT_EQ(snapshot.shards[1].state, ShardState::Abandoned);
    EXPECT_EQ(snapshot.shardsAbandoned, 1u);
}

TEST_F(ProgressTest, RestoredShardShowsCheckpointTotals)
{
    ProgressBoard &board = ProgressBoard::instance();
    board.initShard(2, "slice2", 9, 100, 0.0);
    board.fillRestoredShard(2, /*attempted=*/100, /*valid=*/80,
                            /*bugs=*/3, /*plans=*/40,
                            /*resource_errors=*/1);
    CampaignProgress snapshot = board.snapshot();
    EXPECT_EQ(snapshot.shards[2].state, ShardState::Restored);
    EXPECT_EQ(snapshot.shards[2].checksAttempted, 100u);
    EXPECT_EQ(snapshot.shardsRestored, 1u);
    EXPECT_EQ(snapshot.checksAttempted, 100u);
}

TEST_F(ProgressTest, BanditLeaderRoundTripsAndTruncates)
{
    ProgressBoard &board = ProgressBoard::instance();
    board.initShard(0, "sqlite-like", 7, 100, 0.0);
    {
        ShardScope scope(0, "sqlite-like");
        progress::noteBanditLeader("RULE_JOIN_COUNT_2 5/9");
    }
    EXPECT_EQ(board.snapshot().shards[0].banditLeader,
              "RULE_JOIN_COUNT_2 5/9");
    {
        ShardScope scope(0, "sqlite-like");
        progress::noteBanditLeader(std::string(200, 'x'));
    }
    std::string leader = board.snapshot().shards[0].banditLeader;
    EXPECT_LT(leader.size(), 200u);
    EXPECT_EQ(leader, std::string(leader.size(), 'x'));
}

TEST_F(ProgressTest, ScopesNestAndUnboundNotesAreNoOps)
{
    ProgressBoard &board = ProgressBoard::instance();
    board.initShard(0, "outer", 1, 10, 0.0);
    board.initShard(1, "inner", 2, 10, 0.0);
    {
        ShardScope outer(0, "outer");
        {
            ShardScope inner(1, "inner");
            progress::noteCheck(true, 5);
        }
        progress::noteCheck(true, 3);
    }
    // Unbound thread: every note lands in the sink cell, which no
    // snapshot reads.
    progress::noteCheck(true, 99);
    progress::noteBug();
    progress::noteTotals(1, 2, 3);
    progress::noteBanditLeader("nobody");
    progress::noteAbandoned();

    CampaignProgress snapshot = board.snapshot();
    EXPECT_EQ(snapshot.shards[0].checksAttempted, 1u);
    EXPECT_EQ(snapshot.shards[0].tick, 3u);
    EXPECT_EQ(snapshot.shards[1].checksAttempted, 1u);
    EXPECT_EQ(snapshot.shards[1].tick, 5u);
    EXPECT_EQ(snapshot.checksAttempted, 2u);
}

TEST_F(ProgressTest, StatusJsonCarriesSchemaAndShards)
{
    ProgressBoard &board = ProgressBoard::instance();
    board.initShard(0, "sqlite-like", 7, 100, 0.0);
    board.setShardState(0, ShardState::Running);
    {
        ShardScope scope(0, "sqlite-like");
        progress::noteCheck(true, 4);
    }
    std::string json = renderStatusJson(board.snapshot());
    EXPECT_NE(json.find("\"schema\": \"sqlpp.status.v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"sqlite-like\""), std::string::npos);
    EXPECT_NE(json.find("\"shards\""), std::string::npos);
    EXPECT_NE(json.find("\"stalled\""), std::string::npos);
    EXPECT_NE(json.find("\"checks_attempted\": 1"), std::string::npos);
}

TEST_F(ProgressTest, StalledShardJsonEmbedsRecentEvents)
{
    ProgressBoard &board = ProgressBoard::instance();
    board.initShard(0, "wedged", 7, 100, 0.0);
    board.setShardState(0, ShardState::Running);
    board.setStallThresholdSeconds(0.02);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    std::string json = renderStatusJson(board.snapshot());
    EXPECT_NE(json.find("\"stalled\": ["), std::string::npos);
    EXPECT_NE(json.find("recent_events"), std::string::npos);
}

TEST_F(ProgressTest, ProgressLineSummarizesCampaign)
{
    ProgressBoard &board = ProgressBoard::instance();
    board.initShard(0, "sqlite-like", 7, 100, 0.0);
    board.setShardState(0, ShardState::Running);
    {
        ShardScope scope(0, "sqlite-like");
        progress::noteCheck(true, 1);
        progress::noteCheck(true, 2);
    }
    std::string line = renderProgressLine(board.snapshot());
    EXPECT_NE(line.find("progress:"), std::string::npos);
    EXPECT_NE(line.find("2/300 checks"), std::string::npos);
    EXPECT_NE(line.find("validity"), std::string::npos);
    EXPECT_NE(line.find("bugs"), std::string::npos);
}

} // namespace
} // namespace sqlpp

/**
 * @file
 * ShardScope tests: one binding routes a thread's metrics, trace
 * events, and progress notes into the same shard's metric lane, trace
 * lane, and progress cell; scopes nest and restore; unbound notes land
 * in the sink lane that no snapshot reads; concurrent shards stay
 * isolated (run under -DSQLPP_SANITIZE=thread for the live readers).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/progress.h"
#include "util/metrics.h"
#include "util/shard_scope.h"
#include "util/trace.h"

namespace sqlpp {
namespace {

class ShardScopeTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        MetricsRegistry::instance().reset();
        TraceRecorder::instance().reset();
        ProgressBoard::instance().beginCampaign(/*workers=*/1,
                                                /*shards=*/4,
                                                /*checks_target=*/0);
    }
};

/** One counter, one trace event, and one progress note. */
void
noteAll(size_t counter, uint64_t tick)
{
    MetricsRegistry::instance().add(counter);
    TraceRecorder::instance().record(TraceEventType::OracleCheck, "tlp",
                                     tick, 0);
    progress::noteCheck(true, tick);
}

/** The `a` payloads of a trace lane's events, oldest first. */
std::vector<uint64_t>
tracePayloads(size_t lane)
{
    std::vector<uint64_t> out;
    for (const TraceEvent &event :
         TraceRecorder::instance().laneEvents(lane))
        out.push_back(event.a);
    return out;
}

TEST_F(ShardScopeTest, NestsAndRestoresEveryBinding)
{
    MetricsRegistry &registry = MetricsRegistry::instance();
    size_t counter =
        registry.metricId("test.shard_scope.nest", MetricKind::Counter);

    EXPECT_EQ(currentShardLane(), 0u);
    {
        ShardScope outer(0, "outer");
        EXPECT_EQ(currentShardLane(), shardLane(0));
        noteAll(counter, 1);
        {
            // The inner binding wins until it closes.
            ShardScope inner(1, "inner");
            EXPECT_EQ(currentShardLane(), shardLane(1));
            noteAll(counter, 2);
            noteAll(counter, 3);
        }
        EXPECT_EQ(currentShardLane(), shardLane(0));
        noteAll(counter, 4);
    }
    EXPECT_EQ(currentShardLane(), 0u);

    // Unbound: every store falls into its sink lane.
    noteAll(counter, 99);
    progress::noteSetup(true);
    progress::noteBug();
    progress::noteTotals(1, 2, 3);
    progress::noteBanditLeader("nobody");
    progress::noteAbandoned();

    // Metric lanes.
    EXPECT_EQ(registry.counterTotal("test.shard_scope.nest"), 5u);
    std::string json = exportMetricsJson();
    EXPECT_NE(json.find("\"shard\": \"outer\", \"value\": 2"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"shard\": \"inner\", \"value\": 2"),
              std::string::npos)
        << json;

    // Trace lanes.
    EXPECT_EQ(tracePayloads(shardLane(0)),
              (std::vector<uint64_t>{1, 4}));
    EXPECT_EQ(tracePayloads(shardLane(1)),
              (std::vector<uint64_t>{2, 3}));
    EXPECT_EQ(tracePayloads(0), (std::vector<uint64_t>{99}));
    EXPECT_EQ(TraceRecorder::instance().laneLabel(shardLane(1)),
              "inner");

    // Progress cells; the unbound notes show nowhere.
    CampaignProgress snapshot = ProgressBoard::instance().snapshot();
    ASSERT_EQ(snapshot.shards.size(), 4u);
    EXPECT_EQ(snapshot.shards[0].checksAttempted, 2u);
    EXPECT_EQ(snapshot.shards[0].tick, 4u);
    EXPECT_EQ(snapshot.shards[1].checksAttempted, 2u);
    EXPECT_EQ(snapshot.shards[1].tick, 3u);
    EXPECT_EQ(snapshot.checksAttempted, 4u);
    EXPECT_EQ(snapshot.bugsDetected, 0u);
    EXPECT_EQ(snapshot.plans, 0u);
    EXPECT_EQ(snapshot.resourceErrors, 0u);
    EXPECT_EQ(snapshot.shardsAbandoned, 0u);
    for (const ShardProgress &shard : snapshot.shards) {
        EXPECT_EQ(shard.setupGenerated, 0u);
        EXPECT_EQ(shard.suppressed, 0u);
        EXPECT_EQ(shard.banditLeader, "");
    }
}

TEST_F(ShardScopeTest, ConcurrentShardsStayIsolated)
{
    constexpr size_t kShards = 4;
    constexpr uint64_t kNotes = 2000;
    MetricsRegistry &registry = MetricsRegistry::instance();
    ProgressBoard &board = ProgressBoard::instance();
    size_t counter = registry.metricId("test.shard_scope.concurrent",
                                       MetricKind::Counter);
    for (size_t shard = 0; shard < kShards; ++shard)
        board.initShard(shard, "iso" + std::to_string(shard), shard, 0,
                        0.0);

    // A live reader polls every store while the shards write, the way
    // the status server does mid-campaign. A string read may give up
    // ("") while a writer keeps racing it, but it never tears.
    std::atomic<bool> done{false};
    std::thread reader([&done] {
        while (!done.load()) {
            CampaignProgress snapshot =
                ProgressBoard::instance().snapshot();
            for (const ShardProgress &shard : snapshot.shards) {
                const std::string &leader = shard.banditLeader;
                EXPECT_TRUE(leader.empty() || leader == "even-arm" ||
                            leader == "odd-arm")
                    << leader;
                EXPECT_TRUE(shard.label.empty() ||
                            shard.label ==
                                "iso" + std::to_string(shard.shardIndex))
                    << shard.label;
            }
            (void)exportTraceDeltaJsonl(0);
        }
    });
    std::vector<std::thread> writers;
    for (size_t shard = 0; shard < kShards; ++shard) {
        writers.emplace_back([shard, counter] {
            ShardScope scope(shard, "iso" + std::to_string(shard));
            for (uint64_t i = 1; i <= kNotes; ++i) {
                noteAll(counter, i);
                progress::noteBanditLeader(i % 2 == 0 ? "even-arm"
                                                      : "odd-arm");
            }
        });
    }
    for (std::thread &writer : writers)
        writer.join();
    done.store(true);
    reader.join();

    EXPECT_EQ(registry.counterTotal("test.shard_scope.concurrent"),
              kShards * kNotes);
    CampaignProgress snapshot = board.snapshot();
    TraceRecorder &recorder = TraceRecorder::instance();
    for (size_t shard = 0; shard < kShards; ++shard) {
        EXPECT_EQ(recorder.laneRecorded(shardLane(shard)), kNotes);
        EXPECT_EQ(snapshot.shards[shard].checksAttempted, kNotes);
        EXPECT_EQ(snapshot.shards[shard].tick, kNotes);
        EXPECT_EQ(snapshot.shards[shard].banditLeader, "even-arm");
    }
    EXPECT_EQ(recorder.laneRecorded(0), 0u);
}

} // namespace
} // namespace sqlpp

/**
 * @file
 * Unit tests for the campaign flight recorder (util/trace.h): lane
 * scoping, ring overflow accounting, logical ticks, JSONL rendering,
 * and the pinned sqlpp.trace.v1 schema description
 * (tests/golden/trace_schema.txt).
 */
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/strutil.h"
#include "util/trace.h"

namespace sqlpp {
namespace {

class TraceTest : public ::testing::Test
{
  protected:
    void SetUp() override { TraceRecorder::instance().reset(); }
    void TearDown() override { TraceRecorder::instance().reset(); }
};

TEST_F(TraceTest, EventTypeNamesAreStable)
{
    EXPECT_STREQ(traceEventTypeName(TraceEventType::StatementExecuted),
                 "statement_executed");
    EXPECT_STREQ(traceEventTypeName(TraceEventType::ErrorClass),
                 "error_class");
    EXPECT_STREQ(traceEventTypeName(TraceEventType::ShardAbandoned),
                 "shard_abandoned");
    // Every type renders a distinct non-"unknown" name.
    std::vector<std::string> names;
    for (size_t i = 0; i < kTraceEventTypes; ++i) {
        std::string name =
            traceEventTypeName(static_cast<TraceEventType>(i));
        EXPECT_NE(name, "unknown");
        for (const std::string &prior : names)
            EXPECT_NE(name, prior);
        names.push_back(name);
    }
}

TEST_F(TraceTest, LaneForShardIndexMapping)
{
    EXPECT_EQ(shardLane(kNoShard), 0u);
    EXPECT_EQ(shardLane(0), 1u);
    EXPECT_EQ(shardLane(7), 8u);
    EXPECT_EQ(shardLane(kMaxShards), 1u);
    // The recorder files a bound shard's events under that lane.
    {
        ShardScope scope(7, "seven");
        TraceRecorder::instance().record(TraceEventType::ShardStarted,
                                         "s", 0, 0);
    }
    EXPECT_EQ(TraceRecorder::instance().laneRecorded(8), 1u);
    EXPECT_EQ(TraceRecorder::instance().laneLabel(8), "seven");
}

TEST_F(TraceTest, RecordsIntoTheCurrentLane)
{
    TraceRecorder &recorder = TraceRecorder::instance();
    recorder.record(TraceEventType::OracleCheck, "tlp", 1, 2);
    {
        ShardScope scope(3, "sqlite-like");
        recorder.record(TraceEventType::BugFound, "norec", 7, 0);
    }
    recorder.record(TraceEventType::OracleCheck, "pqs", 0, 0);

    auto lane0 = recorder.laneEvents(0);
    ASSERT_EQ(lane0.size(), 2u);
    EXPECT_EQ(lane0[0].type, TraceEventType::OracleCheck);
    EXPECT_STREQ(lane0[0].detail, "tlp");
    EXPECT_EQ(lane0[0].a, 1u);
    EXPECT_STREQ(lane0[1].detail, "pqs");

    auto lane3 = recorder.laneEvents(shardLane(3));
    ASSERT_EQ(lane3.size(), 1u);
    EXPECT_EQ(lane3[0].type, TraceEventType::BugFound);
    EXPECT_EQ(lane3[0].a, 7u);
    EXPECT_EQ(recorder.laneLabel(shardLane(3)),
              "sqlite-like");
}

TEST_F(TraceTest, ScopesNestAndRestore)
{
    TraceRecorder &recorder = TraceRecorder::instance();
    {
        ShardScope outer(1, "outer");
        recorder.record(TraceEventType::ShardStarted, "o", 0, 0);
        {
            ShardScope inner(2, "inner");
            recorder.record(TraceEventType::ShardStarted, "i", 0, 0);
        }
        recorder.record(TraceEventType::ShardStarted, "o2", 0, 0);
    }
    EXPECT_EQ(recorder.laneEvents(shardLane(1)).size(), 2u);
    EXPECT_EQ(recorder.laneEvents(shardLane(2)).size(), 1u);
}

TEST_F(TraceTest, TicksStampEventsAndStayPerLane)
{
    TraceRecorder &recorder = TraceRecorder::instance();
    ShardScope scope(0, "shard0");
    EXPECT_EQ(recorder.currentTick(), 0u);
    EXPECT_EQ(recorder.bumpTick(), 1u);
    EXPECT_EQ(recorder.bumpTick(), 2u);
    recorder.record(TraceEventType::ErrorClass, "syntax", 0, 0);
    auto events = recorder.laneEvents(shardLane(0));
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].tick, 2u);
    {
        ShardScope other(1, "shard1");
        // A different lane has its own clock.
        EXPECT_EQ(recorder.currentTick(), 0u);
    }
    EXPECT_EQ(recorder.currentTick(), 2u);
}

TEST_F(TraceTest, RingKeepsTheNewestEventsAndCountsDrops)
{
    TraceRecorder &recorder = TraceRecorder::instance();
    ShardScope scope(5, "ring");
    size_t total = TraceRecorder::kRingCapacity + 100;
    for (size_t i = 0; i < total; ++i)
        recorder.record(TraceEventType::StatementExecuted, "", i, 0);
    size_t lane = shardLane(5);
    EXPECT_EQ(recorder.laneRecorded(lane), total);
    auto events = recorder.laneEvents(lane);
    ASSERT_EQ(events.size(), TraceRecorder::kRingCapacity);
    // Oldest retained is event #100; newest is the last recorded.
    EXPECT_EQ(events.front().a, 100u);
    EXPECT_EQ(events.back().a, total - 1);
}

TEST_F(TraceTest, DetailIsTruncatedNotOverflowed)
{
    TraceRecorder &recorder = TraceRecorder::instance();
    std::string longer(2 * TraceEvent::kDetailCapacity, 'x');
    recorder.record(TraceEventType::OracleCheck, longer, 0, 0);
    auto events = recorder.laneEvents(0);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(std::string(events[0].detail),
              std::string(TraceEvent::kDetailCapacity - 1, 'x'));
}

TEST_F(TraceTest, RecentShardEventsReturnsTheTail)
{
    TraceRecorder &recorder = TraceRecorder::instance();
    ShardScope scope(9, "tail");
    for (uint64_t i = 0; i < 10; ++i)
        recorder.record(TraceEventType::StatementExecuted, "", i, 0);
    auto tail = recorder.recentShardEvents(9, 3);
    ASSERT_EQ(tail.size(), 3u);
    EXPECT_EQ(tail[0].a, 7u);
    EXPECT_EQ(tail[2].a, 9u);
}

TEST_F(TraceTest, ExportJsonlShapeAndEscaping)
{
    TraceRecorder &recorder = TraceRecorder::instance();
    {
        ShardScope scope(0, "quote\"and\\slash");
        recorder.bumpTick();
        recorder.record(TraceEventType::ErrorClass, "syn\ntax", 4, 5);
    }
    std::string jsonl = exportTraceJsonl();
    std::istringstream lines(jsonl);
    std::string header;
    ASSERT_TRUE(std::getline(lines, header));
    EXPECT_NE(header.find("\"schema\": \"sqlpp.trace.v1\""),
              std::string::npos);
    EXPECT_NE(header.find("\"lanes\": 1"), std::string::npos);
    EXPECT_NE(header.find("\"events\": 1"), std::string::npos);
    std::string event;
    ASSERT_TRUE(std::getline(lines, event));
    EXPECT_NE(event.find("\"type\": \"error_class\""),
              std::string::npos);
    EXPECT_NE(event.find("\"detail\": \"syn\\ntax\""),
              std::string::npos);
    EXPECT_NE(event.find("quote\\\"and\\\\slash"), std::string::npos);
    EXPECT_NE(event.find("\"tick\": 1"), std::string::npos);
    EXPECT_NE(event.find("\"a\": 4"), std::string::npos);
    std::string rest;
    EXPECT_FALSE(std::getline(lines, rest)) << "unexpected line: "
                                            << rest;
}

TEST_F(TraceTest, DeltaExportFiltersBySinceTick)
{
    TraceRecorder &recorder = TraceRecorder::instance();
    {
        ShardScope scope(0, "delta");
        for (uint64_t i = 1; i <= 3; ++i) {
            recorder.bumpTick();
            recorder.record(TraceEventType::StatementExecuted, "", i,
                            0);
        }
    }
    std::string jsonl = exportTraceDeltaJsonl(1);
    std::istringstream lines(jsonl);
    std::string header;
    ASSERT_TRUE(std::getline(lines, header));
    EXPECT_NE(header.find("\"schema\": \"sqlpp.trace.delta.v1\""),
              std::string::npos)
        << header;
    EXPECT_NE(header.find("\"since\": 1"), std::string::npos);
    // "tick" carries the newest tick seen: the client's next `since`.
    EXPECT_NE(header.find("\"tick\": 3"), std::string::npos);
    EXPECT_NE(header.find("\"events\": 2"), std::string::npos);
    std::string event;
    size_t events = 0;
    while (std::getline(lines, event)) {
        ++events;
        EXPECT_EQ(event.find("\"tick\": 1"), std::string::npos)
            << event;
    }
    EXPECT_EQ(events, 2u);

    // Fully caught up: header only, zero events.
    std::string drained = exportTraceDeltaJsonl(3);
    EXPECT_NE(drained.find("\"events\": 0"), std::string::npos);
    EXPECT_EQ(drained.find("statement_executed"), std::string::npos);
}

TEST_F(TraceTest, DroppedTotalCountsRingOverwrites)
{
    TraceRecorder &recorder = TraceRecorder::instance();
    EXPECT_EQ(traceDroppedTotal(), 0u);
    ShardScope scope(5, "ring");
    size_t total = TraceRecorder::kRingCapacity + 100;
    for (size_t i = 0; i < total; ++i)
        recorder.record(TraceEventType::StatementExecuted, "", i, 0);
    EXPECT_EQ(traceDroppedTotal(), 100u);
    recorder.reset();
    EXPECT_EQ(traceDroppedTotal(), 0u);
}

TEST_F(TraceTest, ExportIsDeterministicAcrossLaneCreationOrder)
{
    TraceRecorder &recorder = TraceRecorder::instance();
    auto fill = [&recorder](std::vector<size_t> shard_order) {
        recorder.reset();
        for (size_t shard : shard_order) {
            ShardScope scope(shard, concat("s", std::to_string(shard)));
            recorder.record(TraceEventType::ShardStarted, "", shard,
                            0);
        }
        return exportTraceJsonl();
    };
    // Lanes render in lane-index order regardless of creation order —
    // the property that makes N-worker exports shard-ordered.
    std::string forwards = fill({0, 1, 2, 3});
    std::string backwards = fill({3, 2, 1, 0});
    EXPECT_EQ(forwards, backwards);
}

TEST_F(TraceTest, ResetClearsEventsTicksAndCounts)
{
    TraceRecorder &recorder = TraceRecorder::instance();
    {
        ShardScope scope(2, "reset");
        recorder.bumpTick();
        recorder.record(TraceEventType::BugFound, "tlp", 1, 0);
    }
    recorder.reset();
    size_t lane = shardLane(2);
    EXPECT_EQ(recorder.laneRecorded(lane), 0u);
    EXPECT_TRUE(recorder.laneEvents(lane).empty());
    ShardScope scope(2, "reset");
    EXPECT_EQ(recorder.currentTick(), 0u);
}

TEST_F(TraceTest, ConcurrentShardScopesStayIsolated)
{
    TraceRecorder &recorder = TraceRecorder::instance();
    constexpr size_t kThreads = 4;
    constexpr size_t kPerThread = 2000;
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &recorder] {
            ShardScope scope(t, "shard" + std::to_string(t));
            for (size_t i = 0; i < kPerThread; ++i) {
                recorder.bumpTick();
                recorder.record(TraceEventType::StatementExecuted, "",
                                i, 0);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (size_t t = 0; t < kThreads; ++t) {
        size_t lane = shardLane(t);
        EXPECT_EQ(recorder.laneRecorded(lane), kPerThread);
        auto events = recorder.laneEvents(lane);
        ASSERT_EQ(events.size(), kPerThread);
        EXPECT_EQ(events.back().a, kPerThread - 1);
        EXPECT_EQ(events.back().tick, kPerThread);
    }
}

TEST_F(TraceTest, SchemaDescriptionMatchesGoldenFile)
{
    std::string rendered = traceSchemaDescription();
    std::string path = std::string(SQLPP_GOLDEN_DIR) +
                       "/trace_schema.txt";

    if (std::getenv("SQLPP_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << rendered;
        GTEST_SKIP() << "golden file regenerated: " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << "; regenerate with SQLPP_UPDATE_GOLDEN=1";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(rendered, golden.str())
        << "sqlpp.trace.v1 schema diverged from "
           "tests/golden/trace_schema.txt; consumers parse these "
           "field names — if the change is deliberate, rerun with "
           "SQLPP_UPDATE_GOLDEN=1 and bump the schema tag";
}

TEST_F(TraceTest, MacrosRecordWhenCompiledIn)
{
    TraceRecorder &recorder = TraceRecorder::instance();
    SQLPP_TRACE_TICK();
    SQLPP_TRACE_EVENT(OracleCheck, "tlp", 3, 4);
    auto events = recorder.laneEvents(0);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].tick, 1u);
    EXPECT_EQ(events[0].b, 4u);
}

} // namespace
} // namespace sqlpp

/**
 * @file
 * Flight-recorder integration tests: fixed-seed JSONL byte-identity,
 * dossier-set invariance across worker counts, learning-curve
 * determinism and checkpoint round-trips, and the end-to-end dossier
 * contract — every written repro.sql must re-trigger the bug on a
 * fresh connection.
 */
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/dossier.h"
#include "core/scheduler.h"
#include "util/trace.h"

namespace sqlpp {
namespace {

namespace fs = std::filesystem;

SchedulerConfig
sliceConfig(size_t workers, size_t slices)
{
    SchedulerConfig config;
    config.mode = ScheduleMode::SliceChecks;
    config.workers = workers;
    config.slices = slices;
    config.campaign.dialect = "sqlite-like";
    config.campaign.seed = 7;
    config.campaign.setupStatements = 40;
    config.campaign.checks = 240;
    config.campaign.feedback.updateInterval = 100;
    config.campaign.feedback.ddlFailureLimit = 6;
    config.campaign.generator.depthStep = 80;
    return config;
}

/** Fresh per-test scratch directory under the system temp root. */
class TraceIntegrationTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        TraceRecorder::instance().reset();
        dir_ = fs::temp_directory_path() /
               ("sqlpp_trace_test_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override
    {
        fs::remove_all(dir_);
        TraceRecorder::instance().reset();
    }

    std::string path(const std::string &leaf) const
    {
        return (dir_ / leaf).string();
    }

    fs::path dir_;
};

std::string
readFile(const fs::path &file)
{
    std::ifstream in(file, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Map of bug-id -> repro.sql text under one dossier root. */
std::map<std::string, std::string>
dossierSet(const fs::path &root)
{
    std::map<std::string, std::string> set;
    if (!fs::exists(root))
        return set;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(root)) {
        if (!entry.is_directory())
            continue;
        set[entry.path().filename().string()] =
            readFile(entry.path() / "repro.sql");
    }
    return set;
}

TEST_F(TraceIntegrationTest, FixedSeedExportIsByteIdentical)
{
    // The headline determinism bar: two single-worker runs of the same
    // config produce byte-identical sqlpp.trace.v1 exports, because
    // every event is stamped with a logical tick, never a wall clock.
    auto capture = [] {
        TraceRecorder::instance().reset();
        CampaignScheduler(sliceConfig(1, 2)).run();
        return exportTraceJsonl();
    };
    std::string first = capture();
    std::string second = capture();
    EXPECT_EQ(first, second);
    EXPECT_NE(first.find("\"schema\": \"sqlpp.trace.v1\""),
              std::string::npos);
    EXPECT_NE(first.find("\"type\": \"shard_started\""),
              std::string::npos);
    EXPECT_NE(first.find("\"type\": \"oracle_check\""),
              std::string::npos);
    EXPECT_NE(first.find("\"type\": \"bug_found\""),
              std::string::npos);
}

TEST_F(TraceIntegrationTest, MergedStatsUnaffectedByRecorderState)
{
    // Tracing is an observer: a run with a dirty recorder (leftover
    // lanes from a previous campaign) merges to the same stats.
    ScheduleReport clean = CampaignScheduler(sliceConfig(1, 2)).run();
    ScheduleReport dirty = CampaignScheduler(sliceConfig(1, 2)).run();
    EXPECT_TRUE(clean.merged == dirty.merged);
}

TEST_F(TraceIntegrationTest, DossierSetInvariantAcrossWorkerCounts)
{
    std::map<std::string, std::string> sets[3];
    size_t workers[3] = {1, 2, 4};
    for (size_t i = 0; i < 3; ++i) {
        SchedulerConfig config = sliceConfig(workers[i], 4);
        config.dossierDir = path("dossiers_w" +
                                 std::to_string(workers[i]));
        ScheduleReport report = CampaignScheduler(config).run();
        EXPECT_EQ(report.dossiersWritten,
                  report.merged.prioritizedBugs.size());
        sets[i] = dossierSet(config.dossierDir);
        EXPECT_EQ(sets[i].size(), report.dossiersWritten);
    }
    ASSERT_FALSE(sets[0].empty());
    EXPECT_EQ(sets[0], sets[1]);
    EXPECT_EQ(sets[0], sets[2]);
}

TEST_F(TraceIntegrationTest, DossierSetSurvivesCheckpointResume)
{
    // First process: run only a prefix of the shards (simulated by
    // checkpointing a full run, then resuming into a fresh scheduler).
    SchedulerConfig config = sliceConfig(2, 4);
    config.checkpointPath = path("campaign.ckpt");
    config.dossierDir = path("dossiers_first");
    ScheduleReport first = CampaignScheduler(config).run();
    ASSERT_FALSE(first.merged.prioritizedBugs.empty());

    // Second process: everything restores from the checkpoint; the
    // dossier writer must still emit the full set (events.jsonl may be
    // empty — the rings died with the "first process" — but bug ids
    // and repro.sql are pinned by the case identity).
    SchedulerConfig resumed = config;
    resumed.resume = true;
    resumed.dossierDir = path("dossiers_resumed");
    ScheduleReport second = CampaignScheduler(resumed).run();
    EXPECT_EQ(second.shardsFromCheckpoint, 4u);

    auto first_set = dossierSet(config.dossierDir);
    auto resumed_set = dossierSet(resumed.dossierDir);
    EXPECT_EQ(first_set, resumed_set);
    EXPECT_EQ(second.dossiersWritten, first.dossiersWritten);
}

TEST_F(TraceIntegrationTest, EveryDossierReproReproduces)
{
    SchedulerConfig config = sliceConfig(2, 3);
    config.dossierDir = path("dossiers");
    ScheduleReport report = CampaignScheduler(config).run();
    ASSERT_GT(report.dossiersWritten, 0u);
    size_t replayed = 0;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(config.dossierDir)) {
        fs::path repro = entry.path() / "repro.sql";
        ASSERT_TRUE(fs::exists(repro)) << repro;
        std::string details;
        EXPECT_TRUE(replayReproFile(repro.string(), &details))
            << repro << ": " << details;
        ++replayed;
    }
    EXPECT_EQ(replayed, report.dossiersWritten);

    // Repro files from builds that still had the retired "batch"
    // pipeline name a mode this build does not know; they replay under
    // the default optimized pipeline, which computed the same results.
    auto set = dossierSet(config.dossierDir);
    ASSERT_FALSE(set.empty());
    std::string repro = readFile(fs::path(config.dossierDir) /
                                 set.begin()->first / "repro.sql");
    const std::string mode_line = "-- mode: optimized\n";
    size_t at = repro.find(mode_line);
    ASSERT_NE(at, std::string::npos) << repro;
    repro.replace(at, mode_line.size(), "-- mode: batch\n");
    std::string batch_path = path("batch_repro.sql");
    {
        std::ofstream out(batch_path, std::ios::binary);
        out << repro;
    }
    std::string details;
    EXPECT_TRUE(replayReproFile(batch_path, &details)) << details;
}

TEST_F(TraceIntegrationTest, DossierDirectoryHoldsAllArtifacts)
{
    SchedulerConfig config = sliceConfig(1, 2);
    config.dossierDir = path("dossiers");
    CampaignScheduler(config).run();
    auto set = dossierSet(config.dossierDir);
    ASSERT_FALSE(set.empty());
    fs::path one = fs::path(config.dossierDir) / set.begin()->first;
    for (const char *leaf :
         {"repro.sql", "dossier.json", "feedback.json", "events.jsonl",
          "metrics.json"}) {
        EXPECT_TRUE(fs::exists(one / leaf)) << leaf;
    }
    std::string dossier_json = readFile(one / "dossier.json");
    EXPECT_NE(dossier_json.find("\"schema\": \"sqlpp.dossier.v1\""),
              std::string::npos);
    EXPECT_NE(dossier_json.find("\"id\": \"" + set.begin()->first),
              std::string::npos);
    // The dossier records which pipeline found the bug; a campaign in
    // the default mode writes the optimized mode name.
    EXPECT_NE(dossier_json.find("\"execMode\": \"optimized\""),
              std::string::npos);
}

TEST_F(TraceIntegrationTest, ReproRoundTripsThroughTheParser)
{
    BugCase bug;
    bug.dialect = "sqlite-like";
    bug.oracle = "TLP";
    bug.setup = {"CREATE TABLE t0 (c0 INT)",
                 "INSERT INTO t0 VALUES (1)"};
    bug.baseText = "SELECT * FROM t0";
    bug.predicateText = "t0.c0 > 0";
    bug.execMode = "reference";
    std::string repro_path = path("repro.sql");
    {
        std::ofstream out(repro_path, std::ios::binary);
        out << renderReproSql(bug);
    }
    auto parsed = parseReproFile(repro_path);
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().dialect, bug.dialect);
    EXPECT_EQ(parsed.value().oracle, bug.oracle);
    EXPECT_EQ(parsed.value().setup, bug.setup);
    EXPECT_EQ(parsed.value().baseText, bug.baseText);
    EXPECT_EQ(parsed.value().predicateText, bug.predicateText);
    // Replay must re-run the bug under the pipeline that found it.
    EXPECT_EQ(parsed.value().execMode, "reference");
    // The id hashes the replayed identity, so it survives the trip.
    // execMode is deliberately excluded: the same logic bug found by
    // either pipeline is one case, not two.
    EXPECT_EQ(bugCaseId(parsed.value()), bugCaseId(bug));
}

TEST_F(TraceIntegrationTest, LegacyReproWithoutModeLineStillParses)
{
    // Repro files written before execMode existed carry no "-- mode:"
    // line; they parse with an empty mode and replay under the
    // default (optimized) pipeline.
    BugCase bug;
    bug.dialect = "sqlite-like";
    bug.oracle = "NOREC";
    bug.setup = {"CREATE TABLE t0 (c0 INT)"};
    bug.baseText = "SELECT * FROM t0";
    bug.predicateText = "t0.c0 IS NULL";
    ASSERT_TRUE(bug.execMode.empty());
    std::string rendered = renderReproSql(bug);
    EXPECT_EQ(rendered.find("-- mode:"), std::string::npos);
    std::string repro_path = path("repro.sql");
    {
        std::ofstream out(repro_path, std::ios::binary);
        out << rendered;
    }
    auto parsed = parseReproFile(repro_path);
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    EXPECT_TRUE(parsed.value().execMode.empty());
    EXPECT_EQ(bugCaseId(parsed.value()), bugCaseId(bug));
}

TEST_F(TraceIntegrationTest, CurveSamplesAreDeterministic)
{
    auto run = [] {
        CampaignConfig config;
        config.dialect = "cratedb-like";
        config.seed = 21;
        config.checks = 300;
        config.setupStatements = 40;
        config.curveInterval = 50;
        config.feedback.updateInterval = 100;
        config.feedback.ddlFailureLimit = 6;
        CampaignRunner runner(config);
        return runner.run();
    };
    CampaignStats first = run();
    CampaignStats second = run();
    // One sample each time checksAttempted crosses a multiple of the
    // interval (generation misses keep attempted below the loop count).
    ASSERT_FALSE(first.curve.empty());
    EXPECT_EQ(first.curve.size(), first.checksAttempted / 50);
    EXPECT_TRUE(first == second);
    uint64_t cum_attempted = 0;
    uint64_t cum_valid = 0;
    for (size_t i = 0; i < first.curve.size(); ++i) {
        const CurveSample &sample = first.curve[i];
        EXPECT_EQ(sample.tick, (i + 1) * 50);
        cum_attempted += sample.windowAttempted;
        cum_valid += sample.windowValid;
        // Cumulative counters are exactly the window sums so far.
        EXPECT_EQ(sample.cumAttempted, cum_attempted);
        EXPECT_EQ(sample.cumValid, cum_valid);
        EXPECT_LE(sample.windowValid, sample.windowAttempted);
    }
    EXPECT_LE(first.curve.back().cumAttempted, first.checksAttempted);
}

TEST_F(TraceIntegrationTest, CurveSurvivesCheckpointRoundTrip)
{
    CampaignConfig config;
    config.dialect = "sqlite-like";
    config.seed = 3;
    config.checks = 200;
    config.setupStatements = 40;
    config.curveInterval = 40;
    config.feedback.updateInterval = 100;
    CampaignRunner runner(config);
    CampaignStats stats = runner.run();
    ASSERT_FALSE(stats.curve.empty());

    KvStore payload = checkpointShard(stats, runner.feedback(),
                                      runner.registry(), 0, 0.0);
    RestoredShard restored;
    Status status = restoreShard(payload, config.feedback, restored);
    ASSERT_TRUE(status.isOk()) << status.toString();
    // CampaignStats::operator== covers the curve vector.
    EXPECT_TRUE(restored.stats == stats);
    ASSERT_EQ(restored.stats.curve.size(), stats.curve.size());
    EXPECT_TRUE(restored.stats.curve.back() == stats.curve.back());
}

TEST_F(TraceIntegrationTest, CurveDisabledByDefault)
{
    CampaignConfig config;
    config.dialect = "sqlite-like";
    config.seed = 3;
    config.checks = 60;
    config.setupStatements = 30;
    CampaignRunner runner(config);
    CampaignStats stats = runner.run();
    EXPECT_TRUE(stats.curve.empty());
}

TEST_F(TraceIntegrationTest, ShardsRecordIntoTheirOwnLanes)
{
    CampaignScheduler(sliceConfig(2, 3)).run();
    TraceRecorder &recorder = TraceRecorder::instance();
    for (size_t shard = 0; shard < 3; ++shard) {
        size_t lane = shardLane(shard);
        EXPECT_GT(recorder.laneRecorded(lane), 0u) << shard;
        auto events = recorder.laneEvents(lane);
        ASSERT_FALSE(events.empty());
        EXPECT_EQ(events.front().type, TraceEventType::ShardStarted);
        EXPECT_EQ(recorder.laneLabel(lane),
                  "slice" + std::to_string(shard));
    }
}

TEST_F(TraceIntegrationTest, CurveSamplesEmitTraceEvents)
{
    CampaignConfig config;
    config.dialect = "sqlite-like";
    config.seed = 3;
    config.checks = 100;
    config.setupStatements = 30;
    config.curveInterval = 25;
    config.feedback.updateInterval = 50;
    CampaignRunner runner(config);
    CampaignStats stats = runner.run();
    ASSERT_FALSE(stats.curve.empty());
    auto events = TraceRecorder::instance().laneEvents(0);
    size_t samples = 0;
    for (const TraceEvent &event : events)
        samples += event.type == TraceEventType::CurveSample ? 1 : 0;
    // Ring overflow may drop the oldest samples, never add extras.
    EXPECT_GE(samples, 1u);
    EXPECT_LE(samples, stats.curve.size());
}

} // namespace
} // namespace sqlpp

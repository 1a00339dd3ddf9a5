/**
 * @file
 * The status-service determinism pin: a polling storm against a live
 * campaign's /status, /metrics, and /trace endpoints must not perturb
 * anything deterministic. Merged stats (CampaignStats operator==, every
 * field), checkpoint payloads, and dossier ids are compared across
 * worker counts 1/2/4 with the storm on, against a quiet 1-worker
 * baseline.
 *
 * Checkpoint payloads are compared key-by-key with the two documented
 * observability-only fields ("worker", "seconds" — wall-clock, never
 * merged; see core/checkpoint.h) removed: everything the deterministic
 * merge consumes must be byte-identical.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/progress.h"
#include "core/scheduler.h"
#include "util/metrics.h"
#include "util/status_server.h"
#include "util/trace.h"

namespace sqlpp {
namespace {

struct RunArtifacts
{
    ScheduleReport report;
    /** Normalized checkpoint: shard -> payload entries. */
    std::map<size_t, std::map<std::string, std::string>> checkpoint;
    /** Sorted dossier paths relative to the dossier root (the ids). */
    std::vector<std::string> dossiers;
};

SchedulerConfig
campaignConfig(size_t workers, const std::string &checkpoint_path,
               const std::string &dossier_dir)
{
    SchedulerConfig config;
    config.mode = ScheduleMode::SliceChecks;
    config.workers = workers;
    config.slices = 4;
    config.campaign.dialect = "sqlite-like";
    config.campaign.seed = 7;
    config.campaign.setupStatements = 40;
    config.campaign.checks = 240;
    config.campaign.feedback.updateInterval = 100;
    config.campaign.feedback.ddlFailureLimit = 6;
    config.campaign.generator.depthStep = 80;
    config.checkpointPath = checkpoint_path;
    config.dossierDir = dossier_dir;
    return config;
}

RunArtifacts
runCampaign(size_t workers, bool storm, const std::string &tag)
{
    namespace fs = std::filesystem;
    fs::path root = fs::path(::testing::TempDir()) /
                    ("status_live_" + tag);
    fs::remove_all(root);
    fs::create_directories(root);
    std::string checkpoint_path = (root / "campaign.ckpt").string();
    std::string dossier_dir = (root / "dossiers").string();

    // Shard lanes are keyed by index and reused across in-process
    // runs; start each run from zeroed observability state.
    MetricsRegistry::instance().reset();
    TraceRecorder::instance().reset();

    StatusServer server;
    std::atomic<bool> stop_polling{false};
    std::atomic<uint64_t> polls{0};
    std::vector<std::thread> pollers;
    if (storm) {
        server.handle("/status", [](const HttpRequest &) {
            HttpResponse response;
            response.body = renderStatusJson(
                ProgressBoard::instance().snapshot());
            return response;
        });
        server.handle("/metrics", [](const HttpRequest &) {
            HttpResponse response;
            response.body = exportMetricsPrometheus();
            return response;
        });
        server.handle("/trace", [](const HttpRequest &request) {
            HttpResponse response;
            response.body = exportTraceDeltaJsonl(
                request.queryU64("since", 0));
            return response;
        });
        EXPECT_TRUE(server.start(0).isOk());
        for (size_t t = 0; t < 4; ++t) {
            pollers.emplace_back([&server, &stop_polling, &polls, t] {
                const char *targets[] = {"/status", "/metrics",
                                         "/trace?since=0"};
                size_t i = t;
                while (!stop_polling.load()) {
                    std::string body;
                    if (httpGetLocal(server.port(),
                                     targets[i++ % 3], &body, nullptr)
                            .isOk() &&
                        !body.empty())
                        polls.fetch_add(1);
                }
            });
        }
    }

    RunArtifacts artifacts;
    CampaignScheduler scheduler(
        campaignConfig(workers, checkpoint_path, dossier_dir));
    artifacts.report = scheduler.run();

    if (storm) {
        stop_polling.store(true);
        for (std::thread &poller : pollers)
            poller.join();
        server.stop();
        // The storm must actually have hammered the endpoints.
        EXPECT_GT(polls.load(), 0u);
    }

    CampaignCheckpoint checkpoint;
    EXPECT_TRUE(checkpoint.loadFrom(checkpoint_path).isOk());
    for (auto &[index, payload] : checkpoint.shards) {
        payload.erase("worker");
        payload.erase("seconds");
        artifacts.checkpoint[index] = payload.entries();
    }

    for (const auto &entry :
         fs::recursive_directory_iterator(dossier_dir))
        artifacts.dossiers.push_back(
            fs::relative(entry.path(), dossier_dir).string());
    std::sort(artifacts.dossiers.begin(), artifacts.dossiers.end());

    fs::remove_all(root);
    return artifacts;
}

TEST(StatusLiveTest, PollingStormPerturbsNothingDeterministic)
{
    RunArtifacts baseline =
        runCampaign(/*workers=*/1, /*storm=*/false, "baseline");
    EXPECT_GT(baseline.report.merged.checksAttempted, 100u);
    EXPECT_FALSE(baseline.checkpoint.empty());
    EXPECT_FALSE(baseline.dossiers.empty());

    for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
        RunArtifacts stormed = runCampaign(
            workers, /*storm=*/true,
            "storm_w" + std::to_string(workers));
        // CampaignStats operator== covers every merged field: check
        // counters, bug lists, plan fingerprints, curve samples.
        EXPECT_TRUE(stormed.report.merged == baseline.report.merged)
            << "merged stats diverged under polling storm with "
            << workers << " workers";
        EXPECT_EQ(stormed.checkpoint, baseline.checkpoint)
            << "checkpoint payloads diverged with " << workers
            << " workers";
        EXPECT_EQ(stormed.dossiers, baseline.dossiers)
            << "dossier ids diverged with " << workers << " workers";
    }
}

TEST(StatusLiveTest, SchedulerPublishesProgressBoard)
{
    MetricsRegistry::instance().reset();
    TraceRecorder::instance().reset();
    SchedulerConfig config = campaignConfig(2, "", "");
    CampaignScheduler scheduler(config);
    ScheduleReport report = scheduler.run();

    // After the run the board holds the final, frozen campaign state;
    // its totals agree with the deterministic merge.
    CampaignProgress snapshot = ProgressBoard::instance().snapshot();
    EXPECT_FALSE(snapshot.active);
    EXPECT_EQ(snapshot.shardsTotal, 4u);
    EXPECT_EQ(snapshot.shardsDone, 4u);
    EXPECT_EQ(snapshot.checksAttempted,
              report.merged.checksAttempted);
    EXPECT_EQ(snapshot.checksValid, report.merged.checksValid);
    EXPECT_EQ(snapshot.bugsDetected, report.merged.bugsDetected);
    ASSERT_EQ(snapshot.shards.size(), 4u);
    EXPECT_EQ(snapshot.shards[0].label, "slice0");
    EXPECT_EQ(snapshot.shards[0].seed, config.campaign.seed);
}

} // namespace
} // namespace sqlpp

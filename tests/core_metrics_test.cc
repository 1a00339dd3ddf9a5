/**
 * @file
 * Campaign-level metrics determinism: the acceptance contract of the
 * observability subsystem.
 *
 *  1. The default JSON export is byte-identical across repeated runs
 *     of the same campaign (fixed seed, one worker).
 *  2. Metric totals — and the merged CampaignStats — are identical
 *     across worker counts: instrumentation must not perturb the
 *     scheduler's deterministic merge, and lanes are keyed by shard,
 *     never by worker.
 *  3. The metric universe is fixed before any campaign runs: this
 *     binary links the scheduler, so every instrumented site is
 *     present and has registered its metric during static
 *     initialisation. tests/golden/metric_universe.txt pins the
 *     names and kinds; after a deliberate change, regenerate it:
 *
 *       SQLPP_UPDATE_GOLDEN=1 ./core_metrics_test
 */
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/scheduler.h"
#include "util/metrics.h"

namespace sqlpp {
namespace {

SchedulerConfig
smallCampaign(size_t workers)
{
    SchedulerConfig config;
    config.mode = ScheduleMode::SliceChecks;
    config.workers = workers;
    config.slices = 4; // fixed layout regardless of workers
    config.campaign.dialect = "sqlite-like";
    config.campaign.seed = 97;
    config.campaign.checks = 80;
    config.campaign.setupStatements = 20;
    config.campaign.oracles = {"TLP", "NOREC"};
    config.campaign.feedback.updateInterval = 50;
    return config;
}

std::string
goldenPath()
{
    return std::string(SQLPP_GOLDEN_DIR) + "/metric_universe.txt";
}

/**
 * Defined first, so a plain run of the binary checks it before any
 * campaign (no campaign registers a name anyway).
 */
TEST(CoreMetricsTest, EveryMetricSiteIsRegisteredBeforeAnyRun)
{
    std::string rendered;
    for (const MetricsRegistry::MetricSnapshot &snap :
         MetricsRegistry::instance().snapshot())
        rendered += snap.name + " " + metricKindName(snap.kind) + "\n";

    if (std::getenv("SQLPP_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(goldenPath(), std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << goldenPath();
        out << rendered;
        GTEST_SKIP() << "golden file regenerated: " << goldenPath();
    }

    std::ifstream in(goldenPath(), std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << goldenPath()
                    << "; regenerate with SQLPP_UPDATE_GOLDEN=1";
    std::ostringstream golden;
    golden << in.rdbuf();

    EXPECT_EQ(rendered, golden.str())
        << "the metric universe diverged from tests/golden/"
           "metric_universe.txt; if the change is intentional, rerun "
           "with SQLPP_UPDATE_GOLDEN=1";

    // Registered-but-untouched metrics emit a stable zero series.
    std::string text = exportMetricsPrometheus();
    EXPECT_NE(text.find("sqlpp_connection_statements 0\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("sqlpp_campaign_trace_dropped 0\n"),
              std::string::npos)
        << text;
}

TEST(CoreMetricsTest, DefaultJsonIsByteIdenticalAcrossRuns)
{
    MetricsRegistry::instance().reset();
    ScheduleReport first_report = CampaignScheduler(smallCampaign(1)).run();
    std::string first = exportMetricsJson();

    MetricsRegistry::instance().reset();
    ScheduleReport second_report =
        CampaignScheduler(smallCampaign(1)).run();
    std::string second = exportMetricsJson();

    EXPECT_EQ(first, second);
    EXPECT_TRUE(first_report.merged == second_report.merged);
}

TEST(CoreMetricsTest, TotalsAreWorkerCountIndependent)
{
    MetricsRegistry::instance().reset();
    ScheduleReport serial = CampaignScheduler(smallCampaign(1)).run();
    std::string serial_json = exportMetricsJson();

    MetricsRegistry::instance().reset();
    ScheduleReport parallel = CampaignScheduler(smallCampaign(4)).run();
    std::string parallel_json = exportMetricsJson();

    // The scheduler's core contract survives instrumentation.
    EXPECT_TRUE(serial.merged == parallel.merged);

    // Every campaign-logic total is a function of seed + shard layout
    // alone. (Only the scheduler.workers gauge may differ.)
    for (const char *name : {
             "campaign.checks",
             "campaign.bugs.detected",
             "campaign.bugs.prioritized",
             "connection.statements",
             "connection.execute.ok",
             "connection.error.syntax",
             "connection.error.semantic",
             "connection.error.runtime",
             "oracle.tlp.pass",
             "oracle.tlp.bug",
             "oracle.norec.pass",
             "oracle.norec.bug",
             "generator.select",
             "scheduler.shards.run",
         }) {
        // Totals were consumed from two separate runs via the JSON
        // strings; recompute from the documents to compare.
        auto total = [&](const std::string &json) {
            std::string needle =
                "\"name\": \"" + std::string(name) + "\"";
            size_t at = json.find(needle);
            EXPECT_NE(at, std::string::npos) << name;
            size_t total_at = json.find("\"total\": ", at);
            EXPECT_NE(total_at, std::string::npos) << name;
            return json.substr(total_at,
                               json.find_first_of(",}", total_at) -
                                   total_at);
        };
        EXPECT_EQ(total(serial_json), total(parallel_json)) << name;
    }

    // The work happened and was recorded: a campaign of 80 checks
    // executes at least that many statements.
    EXPECT_GE(
        MetricsRegistry::instance().counterTotal("connection.statements"),
        80u);
}

TEST(CoreMetricsTest, ShardLanesCarryDialectLabels)
{
    MetricsRegistry::instance().reset();

    SchedulerConfig config;
    config.mode = ScheduleMode::ShardDialects;
    config.workers = 2;
    config.dialects = {"sqlite-like", "duckdb-like"};
    config.campaign.seed = 11;
    config.campaign.checks = 20;
    config.campaign.setupStatements = 10;
    (void)CampaignScheduler(config).run();

    std::string json = exportMetricsJson();
    EXPECT_NE(json.find("\"shard\": \"sqlite-like\""),
              std::string::npos);
    EXPECT_NE(json.find("\"shard\": \"duckdb-like\""),
              std::string::npos);
}

} // namespace
} // namespace sqlpp

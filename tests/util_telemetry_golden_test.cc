/**
 * @file
 * Golden-file test for the read side of the telemetry stores.
 *
 * Every exporter of util/metrics.h and util/trace.h, and the metrics
 * accessor counterTotal, is observable output: bug_hunt writes the
 * JSON documents, the status server serves the Prometheus text and the
 * trace deltas, and the campaign benchmark reads counterTotal. This
 * test feeds both stores
 * a fixed set of writes and pins every rendering of them in
 * tests/golden/telemetry_exports.txt:
 *
 *  - counters, gauges, histograms and timers, some left at zero, one
 *    histogram value in the overflow bucket, timers fed fixed values
 *    through SQLPP_OBSERVE_TIME;
 *  - values in the unbound lane and in two ShardScope lanes, one of
 *    whose labels needs JSON escaping;
 *  - trace events on two lanes, one of which overruns its ring, so
 *    the drop count is non-zero.
 *
 * The registries are process-wide, so this binary holds a single TEST:
 * no other test's registrations can reach the pinned documents. For
 * the same reason it must link no instrumented library object: such
 * objects register their metrics before main, and those would join
 * the pinned documents.
 * Outputs longer than kShownLines lines are pinned by their size and
 * fnv1a digest, with their first and last lines shown for review.
 *
 * To change an export format deliberately, regenerate the file:
 *
 *   SQLPP_UPDATE_GOLDEN=1 ./util_telemetry_golden_test
 */
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/metrics.h"
#include "util/strutil.h"
#include "util/trace.h"

namespace sqlpp {
namespace {

std::string
goldenPath()
{
    return std::string(SQLPP_GOLDEN_DIR) + "/telemetry_exports.txt";
}

/** Lanes the writes go to: shard 0 and shard 5 (labels below). */
constexpr size_t kAlphaShard = 0;
constexpr size_t kOddShard = 5;
const char *const kAlphaLabel = "alpha";
const char *const kOddLabel = "odd \"lane\"\\\t";

/**
 * Every metric the test registers, plus one name never registered;
 * counterTotal is pinned for the counters, the gauges and the unknown
 * name.
 */
struct PinnedMetric
{
    const char *name;
    bool scalar;
};
const PinnedMetric kMetrics[] = {
    {"golden.counter.hits", true},
    {"golden.counter.zero", true},
    {"golden.gauge.size", true},
    {"golden.gauge.zero", true},
    {"golden.histogram.bytes", false},
    {"golden.histogram.zero", false},
    {"golden.timer.wall_us", false},
    {"golden.timer.zero", false},
    {"golden.odd-name/x", true},
    {"golden.never.registered", true},
};

/** Outputs up to this many lines are pinned in full. */
constexpr size_t kShownLines = 40;
/** Lines shown at each end of a longer output. */
constexpr size_t kEdgeLines = 8;

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/** One section of the golden file: a header, then the text itself. */
std::string
section(const std::string &title, const std::string &text)
{
    std::vector<std::string> lines = splitLines(text);
    std::string out = format("== %s: bytes=%zu lines=%zu fnv1a=%016llx\n",
                             title.c_str(), text.size(), lines.size(),
                             (unsigned long long)fnv1a(text));
    if (lines.size() <= kShownLines) {
        out += text;
        if (!text.empty() && text.back() != '\n')
            out += "\n";
        return out;
    }
    for (size_t i = 0; i < kEdgeLines; ++i)
        out += lines[i] + "\n";
    out += format("... %zu lines elided ...\n",
                  lines.size() - 2 * kEdgeLines);
    for (size_t i = lines.size() - kEdgeLines; i < lines.size(); ++i)
        out += lines[i] + "\n";
    return out;
}

void
writeMetrics()
{
    MetricsRegistry &registry = MetricsRegistry::instance();
    size_t hits = registry.metricId("golden.counter.hits",
                                    MetricKind::Counter);
    (void)registry.metricId("golden.counter.zero", MetricKind::Counter);
    size_t size = registry.metricId("golden.gauge.size",
                                    MetricKind::Gauge);
    (void)registry.metricId("golden.gauge.zero", MetricKind::Gauge);
    size_t bytes = registry.metricId("golden.histogram.bytes",
                                     MetricKind::Histogram);
    (void)registry.metricId("golden.histogram.zero",
                            MetricKind::Histogram);
    (void)registry.metricId("golden.timer.zero", MetricKind::Timer);
    size_t odd = registry.metricId("golden.odd-name/x", MetricKind::Counter);

    // Unbound lane 0.
    registry.add(hits, 3);
    registry.set(size, 9);
    registry.observe(bytes, 0);
    registry.observe(bytes, 1);
    registry.observe(bytes, 100);
    SQLPP_OBSERVE_TIME("golden.timer.wall_us", 40);
    registry.add(odd, 2);
    {
        ShardScope scope(kAlphaShard, kAlphaLabel);
        registry.add(hits, 5);
        registry.set(size, 4);
        registry.observe(bytes, 1000);
        registry.observe(bytes, 1000);
        SQLPP_OBSERVE_TIME("golden.timer.wall_us", 250);
        SQLPP_OBSERVE_TIME("golden.timer.wall_us", 7);
    }
    {
        ShardScope scope(kOddShard, kOddLabel);
        registry.add(hits, 11);
        registry.set(size, 17);
        // Past the last bucket's lower bound: the overflow bucket.
        registry.observe(bytes, uint64_t{1} << 40);
        registry.observe(bytes, 3);
        SQLPP_OBSERVE_TIME("golden.timer.wall_us", 1);
        registry.add(odd, 1);
    }
}

void
writeTrace()
{
    TraceRecorder &recorder = TraceRecorder::instance();
    {
        ShardScope scope(kAlphaShard, kAlphaLabel);
        recorder.record(TraceEventType::ShardStarted, kAlphaLabel, 0, 0);
        for (uint64_t i = 0; i < 5; ++i) {
            recorder.bumpTick();
            recorder.record(TraceEventType::StatementExecuted, "", 1, i);
        }
        recorder.record(TraceEventType::ErrorClass, "syn\"tax\\", 0, 0);
        recorder.record(TraceEventType::OracleCheck,
                        "a detail longer than the inline capacity", 2,
                        3);
    }
    {
        ShardScope scope(kOddShard, kOddLabel);
        // Overrun the ring: its eight oldest events are dropped.
        for (size_t i = 0; i < TraceRecorder::kRingCapacity + 7; ++i) {
            recorder.bumpTick();
            recorder.record(TraceEventType::PlanDiscovered, "plan", i,
                            i * 3);
        }
        recorder.record(TraceEventType::BugFound, "tlp", 1, 0);
    }
}

std::string
renderExports()
{
    MetricsRegistry &registry = MetricsRegistry::instance();
    std::string out;
    out += section("exportMetricsJson()", exportMetricsJson());
    out += section("exportMetricsJson(timings)", exportMetricsJson(true));
    out += section("metricsSummaryTable()", metricsSummaryTable());
    out += section("exportMetricsPrometheus()", exportMetricsPrometheus());

    std::string accessors;
    for (const PinnedMetric &metric : kMetrics) {
        accessors += metric.name;
        if (metric.scalar)
            accessors +=
                format(" counterTotal=%llu",
                       (unsigned long long)registry.counterTotal(
                           metric.name));
        accessors += "\n";
    }
    out += section("accessors", accessors);

    out += section("exportTraceJsonl()", exportTraceJsonl());
    out += section("exportTraceDeltaJsonl(3)", exportTraceDeltaJsonl(3));
    out += section("exportTraceDeltaJsonl(4100)",
                   exportTraceDeltaJsonl(4100));
    out += section("traceDroppedTotal()",
                   format("%llu\n",
                          (unsigned long long)traceDroppedTotal()));
    return out;
}

TEST(TelemetryGoldenTest, ExportsMatchGoldenFile)
{
    writeMetrics();
    writeTrace();
    std::string rendered = renderExports();

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
        << "telemetry exports diverged from tests/golden/"
           "telemetry_exports.txt; if the change is intentional, rerun "
           "with SQLPP_UPDATE_GOLDEN=1";
}

} // namespace
} // namespace sqlpp

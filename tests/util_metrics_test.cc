/**
 * @file
 * MetricsRegistry unit tests: registration, bucket math, lanes, the
 * export formats, and a multi-threaded hammer that checks exact totals
 * (run it under -DSQLPP_SANITIZE=thread to validate the lock-free
 * paths).
 */
#include "util/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace sqlpp {
namespace {

/**
 * The registry is process-wide; every test starts from zeroed values.
 * Names are per-test-unique so kind registrations cannot collide.
 */
class MetricsTest : public ::testing::Test
{
  protected:
    void SetUp() override { MetricsRegistry::instance().reset(); }
};

/** A registered metric's snapshot; fails the test if it is absent. */
MetricsRegistry::MetricSnapshot
snapshotOf(const MetricsRegistry &registry, const std::string &name)
{
    for (MetricsRegistry::MetricSnapshot &snap : registry.snapshot())
        if (snap.name == name)
            return snap;
    ADD_FAILURE() << name << " is not registered";
    return {};
}

/** Whether any metric of that name is registered. */
bool
isRegistered(const MetricsRegistry &registry, const std::string &name)
{
    for (const MetricsRegistry::MetricSnapshot &snap : registry.snapshot())
        if (snap.name == name)
            return true;
    return false;
}

TEST_F(MetricsTest, CounterAccumulates)
{
    auto &registry = MetricsRegistry::instance();
    size_t id = registry.metricId("test.counter.basic",
                                  MetricKind::Counter);
    registry.add(id);
    registry.add(id, 41);
    EXPECT_EQ(registry.counterTotal("test.counter.basic"), 42u);
}

TEST_F(MetricsTest, SameNameSameId)
{
    auto &registry = MetricsRegistry::instance();
    size_t a = registry.metricId("test.counter.sameid",
                                 MetricKind::Counter);
    size_t b = registry.metricId("test.counter.sameid",
                                 MetricKind::Counter);
    EXPECT_EQ(a, b);
}

TEST_F(MetricsTest, GaugeKeepsLastValue)
{
    auto &registry = MetricsRegistry::instance();
    size_t id = registry.metricId("test.gauge.basic", MetricKind::Gauge);
    registry.set(id, 7);
    registry.set(id, 3);
    EXPECT_EQ(registry.counterTotal("test.gauge.basic"), 3u);
}

TEST_F(MetricsTest, HistogramCountAndSum)
{
    auto &registry = MetricsRegistry::instance();
    size_t id = registry.metricId("test.histogram.basic",
                                  MetricKind::Histogram);
    registry.observe(id, 0);
    registry.observe(id, 1);
    registry.observe(id, 100);
    MetricsRegistry::MetricSnapshot snap =
        snapshotOf(registry, "test.histogram.basic");
    EXPECT_EQ(snap.count, 3u);
    EXPECT_EQ(snap.sum, 101u);
}

TEST_F(MetricsTest, BucketIndexIsBitWidth)
{
    EXPECT_EQ(MetricsRegistry::bucketIndex(0), 0u);
    EXPECT_EQ(MetricsRegistry::bucketIndex(1), 1u);
    EXPECT_EQ(MetricsRegistry::bucketIndex(2), 2u);
    EXPECT_EQ(MetricsRegistry::bucketIndex(3), 2u);
    EXPECT_EQ(MetricsRegistry::bucketIndex(4), 3u);
    EXPECT_EQ(MetricsRegistry::bucketIndex(1023), 10u);
    EXPECT_EQ(MetricsRegistry::bucketIndex(1024), 11u);
    // Everything wider than the table folds into the last bucket.
    EXPECT_EQ(MetricsRegistry::bucketIndex(UINT64_MAX),
              MetricsRegistry::kHistogramBuckets - 1);
}

TEST_F(MetricsTest, BucketBoundsArePowersOfTwo)
{
    EXPECT_EQ(MetricsRegistry::bucketUpperBound(0), 0u);
    EXPECT_EQ(MetricsRegistry::bucketUpperBound(1), 1u);
    EXPECT_EQ(MetricsRegistry::bucketUpperBound(2), 3u);
    EXPECT_EQ(MetricsRegistry::bucketUpperBound(3), 7u);
    EXPECT_EQ(MetricsRegistry::bucketUpperBound(
                  MetricsRegistry::kHistogramBuckets - 1),
              UINT64_MAX);
    // Each value lands in a bucket whose bound covers it.
    for (uint64_t value : {0ull, 1ull, 5ull, 1000ull, 123456789ull}) {
        size_t bucket = MetricsRegistry::bucketIndex(value);
        EXPECT_LE(value, MetricsRegistry::bucketUpperBound(bucket));
        if (bucket > 0) {
            EXPECT_GT(value,
                      MetricsRegistry::bucketUpperBound(bucket - 1));
        }
    }
}

TEST_F(MetricsTest, ShardScopeSplitsLanes)
{
    auto &registry = MetricsRegistry::instance();
    size_t id =
        registry.metricId("test.counter.lanes", MetricKind::Counter);
    registry.add(id, 5); // lane 0 (unlabeled)
    {
        ShardScope scope(0, "shard-a");
        registry.add(id, 7);
    }
    {
        ShardScope scope(1, "shard-b");
        registry.add(id, 11);
    }
    registry.add(id, 17);
    EXPECT_EQ(registry.counterTotal("test.counter.lanes"),
              5u + 7u + 11u + 17u);

    std::string json = exportMetricsJson();
    EXPECT_NE(json.find("\"shard\": \"shard-a\", \"value\": 7"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"shard\": \"shard-b\", \"value\": 11"),
              std::string::npos)
        << json;
}

TEST_F(MetricsTest, ResetZeroesButKeepsRegistrations)
{
    auto &registry = MetricsRegistry::instance();
    size_t id =
        registry.metricId("test.counter.reset", MetricKind::Counter);
    registry.add(id, 9);
    size_t before = registry.registered();
    registry.reset();
    EXPECT_EQ(registry.counterTotal("test.counter.reset"), 0u);
    EXPECT_EQ(registry.registered(), before);
    registry.add(id, 2); // resolved id survives the reset
    EXPECT_EQ(registry.counterTotal("test.counter.reset"), 2u);
}

TEST_F(MetricsTest, TimerValuesStayOutOfDefaultJson)
{
    auto &registry = MetricsRegistry::instance();
    size_t id =
        registry.metricId("test.timer.hidden_us", MetricKind::Timer);
    registry.observe(id, 123456);
    std::string json = exportMetricsJson();
    // The observation count is deterministic and exported; the
    // wall-clock sum and buckets are not.
    EXPECT_NE(json.find("\"test.timer.hidden_us\", \"kind\": \"timer\", "
                        "\"count\": 1"),
              std::string::npos)
        << json;
    EXPECT_EQ(json.find("123456"), std::string::npos) << json;

    std::string full = exportMetricsJson(/*include_timings=*/true);
    EXPECT_NE(full.find("\"sum\": 123456"), std::string::npos) << full;
}

TEST_F(MetricsTest, HistogramBucketsExportSparse)
{
    auto &registry = MetricsRegistry::instance();
    size_t id = registry.metricId("test.histogram.sparse",
                                  MetricKind::Histogram);
    registry.observe(id, 3);
    registry.observe(id, 3);
    std::string json = exportMetricsJson();
    // Exactly one non-empty bucket is listed; empty ones are omitted.
    EXPECT_NE(json.find("\"test.histogram.sparse\", \"kind\": "
                        "\"histogram\", \"count\": 2, \"sum\": 6, "
                        "\"buckets\": [{\"le\": 3, \"count\": 2}]"),
              std::string::npos)
        << json;
}

TEST_F(MetricsTest, ExportIsSortedByName)
{
    auto &registry = MetricsRegistry::instance();
    registry.add(registry.metricId("test.sort.zzz", MetricKind::Counter));
    registry.add(registry.metricId("test.sort.aaa", MetricKind::Counter));
    std::string json = exportMetricsJson();
    size_t aaa = json.find("test.sort.aaa");
    size_t zzz = json.find("test.sort.zzz");
    ASSERT_NE(aaa, std::string::npos);
    ASSERT_NE(zzz, std::string::npos);
    EXPECT_LT(aaa, zzz);
}

TEST_F(MetricsTest, SummaryTableMentionsValues)
{
    auto &registry = MetricsRegistry::instance();
    registry.add(
        registry.metricId("test.summary.counter", MetricKind::Counter), 42);
    std::string table = metricsSummaryTable();
    EXPECT_NE(table.find("test.summary.counter"), std::string::npos);
    EXPECT_NE(table.find("42"), std::string::npos);
}

/**
 * N threads hammer one counter and one histogram concurrently, half of
 * them inside per-thread shard scopes. Totals must be exact — the
 * whole point of the relaxed-atomic cells — and TSan must stay quiet
 * about the registration and lane-creation races.
 */
TEST_F(MetricsTest, ConcurrentHammerHasExactTotals)
{
    auto &registry = MetricsRegistry::instance();
    constexpr size_t kThreads = 8;
    constexpr size_t kIterations = 20000;

    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &registry]() {
            // Resolve ids from every thread concurrently: exercises
            // the registration mutex against hot-path readers.
            size_t counter = registry.metricId("test.concurrent.counter",
                                               MetricKind::Counter);
            size_t histogram = registry.metricId(
                "test.concurrent.histogram", MetricKind::Histogram);
            if (t % 2 == 0) {
                ShardScope scope(t / 2, "hammer-" +
                                                   std::to_string(t / 2));
                for (size_t i = 0; i < kIterations; ++i) {
                    registry.add(counter);
                    registry.observe(histogram, i % 17);
                }
            } else {
                for (size_t i = 0; i < kIterations; ++i) {
                    registry.add(counter);
                    registry.observe(histogram, i % 17);
                }
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(registry.counterTotal("test.concurrent.counter"),
              kThreads * kIterations);
    MetricsRegistry::MetricSnapshot histogram =
        snapshotOf(registry, "test.concurrent.histogram");
    EXPECT_EQ(histogram.count, kThreads * kIterations);
    uint64_t per_thread_sum = 0;
    for (size_t i = 0; i < kIterations; ++i)
        per_thread_sum += i % 17;
    EXPECT_EQ(histogram.sum, kThreads * per_thread_sum);
}

/**
 * Quantile pins: the interpolation is deterministic arithmetic over
 * the power-of-two bucket layout (bucket 0 = value 0, bucket i covers
 * [2^(i-1), 2^i - 1]), so exact doubles are pinned here.
 */
TEST_F(MetricsTest, QuantileInterpolatesWithinOneBucket)
{
    // 10 observations in bucket 3 ([4, 7]).
    uint64_t buckets[8] = {0, 0, 0, 10, 0, 0, 0, 0};
    // p50: rank 5, half-way through the bucket -> 4 + 3 * 0.5.
    EXPECT_DOUBLE_EQ(histogramQuantileFromBuckets(buckets, 8, 0.50),
                     5.5);
    EXPECT_DOUBLE_EQ(histogramQuantileFromBuckets(buckets, 8, 0.99),
                     4.0 + 3.0 * 0.99);
}

TEST_F(MetricsTest, QuantileSpansBuckets)
{
    // 2 zeros (bucket 0) + 8 observations in bucket 4 ([8, 15]).
    uint64_t buckets[8] = {2, 0, 0, 0, 8, 0, 0, 0};
    // p50: rank 5 lands in bucket 4 with 3 of its 8 hits consumed.
    EXPECT_DOUBLE_EQ(histogramQuantileFromBuckets(buckets, 8, 0.50),
                     8.0 + 7.0 * (5.0 - 2.0) / 8.0);
    EXPECT_DOUBLE_EQ(histogramQuantileFromBuckets(buckets, 8, 0.95),
                     8.0 + 7.0 * (9.5 - 2.0) / 8.0);
    // Rank inside bucket 0 is exactly zero.
    EXPECT_DOUBLE_EQ(histogramQuantileFromBuckets(buckets, 8, 0.10),
                     0.0);
}

TEST_F(MetricsTest, QuantileEdgeCases)
{
    EXPECT_DOUBLE_EQ(histogramQuantileFromBuckets(nullptr, 0, 0.5),
                     0.0);
    uint64_t empty[4] = {0, 0, 0, 0};
    EXPECT_DOUBLE_EQ(histogramQuantileFromBuckets(empty, 4, 0.5), 0.0);
    uint64_t zeros[4] = {10, 0, 0, 0};
    EXPECT_DOUBLE_EQ(histogramQuantileFromBuckets(zeros, 4, 0.99),
                     0.0);
    // Overflow bucket clamps to its lower bound (Prometheus-style).
    uint64_t overflow[4] = {0, 0, 0, 5};
    EXPECT_DOUBLE_EQ(histogramQuantileFromBuckets(overflow, 4, 0.99),
                     4.0);
}

TEST_F(MetricsTest, MetricQuantilesReadTheLiveRegistry)
{
    auto &registry = MetricsRegistry::instance();
    size_t id = registry.metricId("test.quantile.live",
                                  MetricKind::Histogram);
    // Bucket 1 is the degenerate range [1, 1]: every quantile is 1.
    for (int i = 0; i < 100; ++i)
        registry.observe(id, 1);
    MetricsRegistry::MetricSnapshot snap =
        snapshotOf(registry, "test.quantile.live");
    for (double q : {0.50, 0.95, 0.99})
        EXPECT_DOUBLE_EQ(
            histogramQuantileFromBuckets(
                snap.buckets, MetricsRegistry::kHistogramBuckets, q),
            1.0)
            << q;

    // A scalar metric has no buckets, so every quantile reads 0.
    size_t scalar =
        registry.metricId("test.quantile.scalar", MetricKind::Counter);
    registry.add(scalar, 3);
    MetricsRegistry::MetricSnapshot counter =
        snapshotOf(registry, "test.quantile.scalar");
    EXPECT_DOUBLE_EQ(
        histogramQuantileFromBuckets(
            counter.buckets, MetricsRegistry::kHistogramBuckets, 0.50),
        0.0);
}

TEST_F(MetricsTest, BucketTotalsSumAcrossLanes)
{
    auto &registry = MetricsRegistry::instance();
    size_t id = registry.metricId("test.buckets.lanes",
                                  MetricKind::Histogram);
    registry.observe(id, 4); // lane 0
    {
        ShardScope scope(0, "lane-a");
        registry.observe(id, 4);
        registry.observe(id, 0);
    }
    MetricsRegistry::MetricSnapshot snap =
        snapshotOf(registry, "test.buckets.lanes");
    EXPECT_EQ(snap.buckets[0], 1u); // the zero
    EXPECT_EQ(snap.buckets[MetricsRegistry::bucketIndex(4)], 2u);
    EXPECT_EQ(snap.count, 3u);
    EXPECT_FALSE(isRegistered(registry, "test.buckets.absent"));
}

TEST_F(MetricsTest, SummaryTableCarriesQuantileColumns)
{
    auto &registry = MetricsRegistry::instance();
    size_t id = registry.metricId("test.summary.quantiles",
                                  MetricKind::Histogram);
    for (int i = 0; i < 10; ++i)
        registry.observe(id, 1);
    std::string table = metricsSummaryTable();
    EXPECT_NE(table.find("p50"), std::string::npos);
    EXPECT_NE(table.find("p95"), std::string::npos);
    EXPECT_NE(table.find("p99"), std::string::npos);
    // All ten observations sit in the degenerate [1, 1] bucket.
    size_t row = table.find("test.summary.quantiles");
    ASSERT_NE(row, std::string::npos);
    std::string line = table.substr(row, table.find('\n', row) - row);
    EXPECT_NE(line.find(" 1 "), std::string::npos) << line;
}

TEST_F(MetricsTest, PrometheusExportsScalars)
{
    auto &registry = MetricsRegistry::instance();
    registry.add(registry.metricId("test.prom.counter", MetricKind::Counter),
                 5);
    size_t gauge = registry.metricId("test.prom.gauge",
                                     MetricKind::Gauge);
    registry.set(gauge, 9);
    std::string text = exportMetricsPrometheus();
    EXPECT_NE(text.find("# TYPE sqlpp_test_prom_counter counter\n"
                        "sqlpp_test_prom_counter 5\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("# TYPE sqlpp_test_prom_gauge gauge\n"
                        "sqlpp_test_prom_gauge 9\n"),
              std::string::npos)
        << text;
}

TEST_F(MetricsTest, PrometheusHistogramIsCumulative)
{
    auto &registry = MetricsRegistry::instance();
    size_t id = registry.metricId("test.prom.histogram",
                                  MetricKind::Histogram);
    registry.observe(id, 0);
    registry.observe(id, 3);
    registry.observe(id, 3);
    std::string text = exportMetricsPrometheus();
    // Non-empty bounds only, counts cumulative, then +Inf/sum/count.
    EXPECT_NE(text.find("sqlpp_test_prom_histogram_bucket{le=\"0\"} 1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("sqlpp_test_prom_histogram_bucket{le=\"3\"} 3"),
              std::string::npos)
        << text;
    EXPECT_NE(
        text.find("sqlpp_test_prom_histogram_bucket{le=\"+Inf\"} 3"),
        std::string::npos)
        << text;
    EXPECT_NE(text.find("sqlpp_test_prom_histogram_sum 6"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("sqlpp_test_prom_histogram_count 3"),
              std::string::npos)
        << text;
}

TEST_F(MetricsTest, PrometheusSanitizesNamesAndKeepsZeroSeries)
{
    auto &registry = MetricsRegistry::instance();
    registry.add(
        registry.metricId("test.prom-weird.name", MetricKind::Counter));
    (void)registry.metricId("test.prom.untouched", MetricKind::Gauge);
    std::string text = exportMetricsPrometheus();
    EXPECT_NE(text.find("sqlpp_test_prom_weird_name 1"),
              std::string::npos);
    // Registered-but-untouched metrics still emit a stable zero series.
    EXPECT_NE(text.find("# TYPE sqlpp_test_prom_untouched gauge\n"
                        "sqlpp_test_prom_untouched 0\n"),
              std::string::npos)
        << text;
}

/**
 * Each reading is of the metric's own kind: a counter has no
 * observations and a histogram no counter total, rather than the cells
 * that follow the metric's own.
 */
TEST_F(MetricsTest, AccessorsOfTheOtherKindReadZero)
{
    MetricsRegistry registry;
    size_t counter =
        registry.metricId("test.kind.counter", MetricKind::Counter);
    size_t histogram =
        registry.metricId("test.kind.histogram", MetricKind::Histogram);
    registry.add(counter, 5);
    registry.observe(histogram, 0);
    registry.observe(histogram, 9);
    EXPECT_EQ(registry.counterTotal("test.kind.counter"), 5u);
    MetricsRegistry::MetricSnapshot as_counter =
        snapshotOf(registry, "test.kind.counter");
    EXPECT_EQ(as_counter.count, 0u);
    EXPECT_EQ(as_counter.sum, 0u);
    EXPECT_EQ(registry.counterTotal("test.kind.histogram"), 0u);
    MetricsRegistry::MetricSnapshot as_histogram =
        snapshotOf(registry, "test.kind.histogram");
    EXPECT_EQ(as_histogram.total, 0u);
    EXPECT_EQ(as_histogram.count, 2u);
    EXPECT_EQ(as_histogram.sum, 9u);
}

/**
 * A name asked for under a second kind gets the overflow id: a
 * histogram's writes through the counter's id would run past the
 * counter's one cell into the metric registered after it.
 */
TEST_F(MetricsTest, SameNameUnderAnotherKindDropsWrites)
{
    MetricsRegistry registry;
    size_t counter = registry.metricId("a", MetricKind::Counter);
    (void)registry.metricId("b", MetricKind::Counter);
    size_t histogram = registry.metricId("a", MetricKind::Histogram);
    EXPECT_EQ(histogram, MetricsRegistry::kOverflowId);
    EXPECT_EQ(registry.metricId("a", MetricKind::Counter), counter);
    registry.observe(histogram, 1);
    registry.observe(histogram, 1000);
    EXPECT_EQ(registry.counterTotal("a"), 0u);
    EXPECT_EQ(registry.counterTotal("b"), 0u);
    MetricsRegistry::MetricSnapshot first = snapshotOf(registry, "a");
    EXPECT_EQ(first.kind, MetricKind::Counter);
    EXPECT_EQ(first.count, 0u);
}

TEST_F(MetricsTest, FullRegistryDropsWritesPastTheMetricCap)
{
    MetricsRegistry registry;
    for (size_t i = 0; i < MetricsRegistry::kMaxMetrics; ++i)
        registry.metricId("test.full.counter." + std::to_string(i),
                          MetricKind::Counter);
    size_t overflow =
        registry.metricId("test.full.histogram", MetricKind::Histogram);
    EXPECT_EQ(overflow, MetricsRegistry::kOverflowId);
    EXPECT_EQ(registry.registered(), MetricsRegistry::kMaxMetrics);
    // A histogram's buckets and sum span 29 cells: written through
    // metric 0 they would land in counters 0..28.
    registry.observe(overflow, 1000);
    registry.observe(overflow, 0);
    registry.add(overflow, 7);
    registry.set(overflow, 9);
    for (size_t i = 0; i < MetricsRegistry::kMaxMetrics; ++i)
        EXPECT_EQ(registry.counterTotal("test.full.counter." +
                                        std::to_string(i)),
                  0u)
            << i;
    EXPECT_FALSE(isRegistered(registry, "test.full.histogram"));
}

TEST_F(MetricsTest, FullRegistryDropsWritesPastTheCellCap)
{
    MetricsRegistry registry;
    size_t first = registry.metricId("test.cells.counter",
                                     MetricKind::Counter);
    size_t cells = 1;
    size_t histograms = 0;
    while (cells + MetricsRegistry::kHistogramBuckets + 1 <=
           MetricsRegistry::kMaxCells) {
        registry.metricId("test.cells.histogram." +
                              std::to_string(histograms++),
                          MetricKind::Histogram);
        cells += MetricsRegistry::kHistogramBuckets + 1;
    }
    ASSERT_LT(registry.registered(), MetricsRegistry::kMaxMetrics);
    size_t overflow =
        registry.metricId("test.cells.overflow", MetricKind::Timer);
    EXPECT_EQ(overflow, MetricsRegistry::kOverflowId);
    EXPECT_NE(overflow, first);
    registry.observe(overflow, 1000);
    registry.observe(overflow, UINT64_MAX);
    registry.add(overflow, 3);
    EXPECT_EQ(registry.counterTotal("test.cells.counter"), 0u);
    for (size_t i = 0; i < histograms; ++i) {
        std::string name = "test.cells.histogram." + std::to_string(i);
        MetricsRegistry::MetricSnapshot snap = snapshotOf(registry, name);
        EXPECT_EQ(snap.count, 0u) << name;
        EXPECT_EQ(snap.sum, 0u) << name;
    }
}

/** Concurrent SQLPP_SPAN use: timer counts must be exact too. */
TEST_F(MetricsTest, ConcurrentSpansCountExactly)
{
    constexpr size_t kThreads = 4;
    constexpr size_t kIterations = 2000;
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([]() {
            for (size_t i = 0; i < kIterations; ++i) {
                SQLPP_SPAN("test.concurrent.span_us");
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(snapshotOf(MetricsRegistry::instance(),
                         "test.concurrent.span_us")
                  .count,
              kThreads * kIterations);
}

} // namespace
} // namespace sqlpp

/**
 * @file
 * Campaign observability: a process-wide metrics and tracing registry.
 *
 * The platform is judged by campaign-level signals — validity rate,
 * plan coverage, bugs over time (paper Tables 2–5, Fig. 8) — but a
 * production fleet also needs to see *where* statements and wall-clock
 * time go inside a shard. The registry holds three metric kinds:
 *
 *  - Counter: a monotonically increasing event count.
 *  - Gauge: a last-written value (configuration facts, sizes).
 *  - Histogram / Timer: fixed power-of-two buckets over a uint64
 *    value. A Timer is a histogram of wall-clock microseconds fed by
 *    RAII spans (SQLPP_SPAN); a plain Histogram observes logical,
 *    deterministic values (bytes, node counts, percentages).
 *
 * Hot-path discipline: call sites resolve a metric name to an id once
 * (function-local static), after which every event is a single relaxed
 * atomic increment into fixed-capacity storage that never reallocates.
 * Registration alone takes the mutex.
 *
 * Shard label dimension: every value cell is replicated per *lane*
 * (util/shard_scope.h). Lane 0 collects unlabeled process totals; the
 * scheduler wraps each shard in a ShardScope, which binds the
 * executing thread to the shard's lane. Because lane assignment
 * depends only on the shard index — never on which worker ran the
 * shard — per-lane values and their sums are independent of the
 * worker count.
 *
 * Read side: one reader turns a metric's cells in every lane into a
 * MetricSnapshot (the counter sum or gauge max, the non-zero shard
 * lanes with their labels, the histogram buckets, count and sum), and
 * MetricsRegistry::snapshot() returns that for every metric, sorted by
 * name, under one hold of the registry mutex. The JSON, summary-table
 * and Prometheus exporters render only from that list, and the
 * counterTotal / histogram* accessors are a name lookup plus the same
 * reader, so every view of the registry agrees.
 *
 * Determinism contract of the JSON export (exportMetricsJson):
 * counters, gauges, and logical histograms are functions of the
 * campaign seed alone, and Timer metrics export only their observation
 * *count* by default — wall-clock durations appear only when its one
 * option, include_timings, is set (bug_hunt --metrics-timings), or in
 * the human summary table. The default document is therefore
 * byte-identical across runs for a fixed seed with one worker.
 */
#ifndef SQLPP_UTIL_METRICS_H
#define SQLPP_UTIL_METRICS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/shard_scope.h"

namespace sqlpp {

/** What a metric measures; fixed at first registration. */
enum class MetricKind
{
    Counter,
    Gauge,
    /** Fixed-bucket histogram of a logical (deterministic) value. */
    Histogram,
    /** Histogram of wall-clock microseconds (nondeterministic values). */
    Timer,
};

/** Stable name of a MetricKind ("counter", "gauge", ...). */
const char *metricKindName(MetricKind kind);

/** Process-wide registry of named campaign metrics. */
class MetricsRegistry
{
  public:
    /** Upper bound on registered metrics. */
    static constexpr size_t kMaxMetrics = 512;
    /**
     * Histogram buckets: bucket 0 holds the value 0, bucket i holds
     * values whose bit width is i (2^(i-1) .. 2^i - 1); the last
     * bucket absorbs everything larger. 28 buckets span ~134 seconds
     * in microseconds and ~128 MiB in bytes.
     */
    static constexpr size_t kHistogramBuckets = 28;
    /** Value cells per lane (counters 1, gauges 1, histograms B+1). */
    static constexpr size_t kMaxCells = 8192;
    /**
     * The id metricId() answers when the registry is full: never a
     * registered id, so add/set/observe drop writes through it.
     */
    static constexpr size_t kOverflowId = kMaxMetrics;

    MetricsRegistry();

    /** The process-wide instance all instrumentation feeds. */
    static MetricsRegistry &instance();

    /**
     * Resolve a name to a metric id, registering it if unknown. Ids
     * are stable for the process lifetime. Registering the same name
     * under a different kind keeps the first kind (and logs nothing:
     * the declared universe in declarePlatformMetrics() is the source
     * of truth). A name that no longer fits (kMaxMetrics metrics or
     * kMaxCells cells) gets kOverflowId. Thread-safe; takes the
     * registry mutex.
     */
    size_t metricId(const std::string &name, MetricKind kind);

    /** Add to a counter (hot path; lock-free). */
    void add(size_t id, uint64_t delta = 1);

    /** Set a gauge to a value (hot path; lock-free). */
    void set(size_t id, uint64_t value);

    /** Observe a histogram/timer value (hot path; lock-free). */
    void observe(size_t id, uint64_t value);

    /** Cold-path counter add resolving the name every call. */
    void addByName(const std::string &name, uint64_t delta = 1);

    /** Number of registered metrics. */
    size_t registered() const;

    /** One metric's values read across every lane. */
    struct MetricSnapshot
    {
        std::string name;
        MetricKind kind = MetricKind::Counter;
        /** Counter: sum across lanes; gauge: max. 0 for histograms. */
        uint64_t total = 0;
        /**
         * Counters and gauges: (label, value) of each non-zero shard
         * lane 1..kMaxShards, in lane order. Lane 0 only adds to total.
         */
        std::vector<std::pair<std::string, uint64_t>> shards;
        /** Histograms and timers: bucket counts summed across lanes. */
        uint64_t buckets[kHistogramBuckets] = {};
        uint64_t count = 0;
        uint64_t sum = 0;
    };

    /**
     * Every registered metric read across every lane, sorted by name,
     * under one hold of the registry mutex. All exporters render from
     * this list.
     */
    std::vector<MetricSnapshot> snapshot() const;

    /**
     * Sum of a counter across lanes, or a gauge's maximum; 0 for
     * unknown names and histograms.
     */
    uint64_t counterTotal(const std::string &name) const;

    /** Total observations of a histogram/timer across lanes. */
    uint64_t histogramCount(const std::string &name) const;

    /** Sum of observed values of a histogram/timer across lanes. */
    uint64_t histogramSum(const std::string &name) const;

    /**
     * Per-bucket observation counts of a histogram/timer summed across
     * lanes (kHistogramBuckets entries); empty for unknown names and
     * scalar metrics.
     */
    std::vector<uint64_t>
    histogramBucketTotals(const std::string &name) const;

    /**
     * Zero every value in every lane; registrations, lane labels, and
     * resolved ids stay valid. Campaign drivers call this before a
     * run so repeated in-process runs (tests, benches) start clean.
     */
    void reset();

    /** Bucket index for a histogram value (exposed for tests). */
    static size_t bucketIndex(uint64_t value);

    /** Inclusive upper bound of a bucket (UINT64_MAX for the last). */
    static uint64_t bucketUpperBound(size_t bucket);

  private:
    friend class ShardScope;

    struct Metric
    {
        std::string name;
        MetricKind kind = MetricKind::Counter;
        /** First value cell; histograms use [cell, cell + B + 1). */
        size_t cell = 0;
    };

    /** One label dimension's worth of value cells. */
    struct Lane
    {
        std::string label;
        std::unique_ptr<std::atomic<uint64_t>[]> cells;
    };

    /**
     * The one reader: a metric's cells in every lane, folded into a
     * snapshot. Callers hold mutex_ (lane labels are written under it).
     */
    MetricSnapshot read(const Metric &metric) const;

    /** read() of a named metric; an empty snapshot for unknown names. */
    MetricSnapshot readByName(const std::string &name) const;

    /** Create a lane's storage if absent and set its label. */
    void bindLane(size_t lane_index, const std::string &label);

    Lane *lane(size_t lane_index) const
    {
        return lanes_[lane_index].load(std::memory_order_acquire);
    }

    /** Guards metric registration and lane creation. */
    mutable std::mutex mutex_;
    std::map<std::string, size_t> ids_;
    std::vector<Metric> metrics_;
    /** Published metric count (hot-path reads need no lock). */
    std::atomic<size_t> registered_{0};
    size_t next_cell_ = 0;
    /** Fixed-capacity lane table: pointers never move once published. */
    std::atomic<Lane *> lanes_[kMaxShards + 1];
    std::vector<std::unique_ptr<Lane>> lane_storage_;
};

/**
 * RAII wall-clock span feeding a Timer metric in microseconds; see
 * SQLPP_SPAN.
 */
class MetricsSpan
{
  public:
    explicit MetricsSpan(size_t id)
        : id_(id), start_(std::chrono::steady_clock::now())
    {
    }

    ~MetricsSpan()
    {
        auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_);
        MetricsRegistry::instance().observe(
            id_, static_cast<uint64_t>(elapsed.count()));
    }

    MetricsSpan(const MetricsSpan &) = delete;
    MetricsSpan &operator=(const MetricsSpan &) = delete;

  private:
    size_t id_;
    std::chrono::steady_clock::time_point start_;
};

/**
 * Serialize the registry as a stable JSON document (schema
 * "sqlpp.metrics.v1"): every metric sorted by name, zero-valued ones
 * included, non-zero shard lanes by index, sparse non-empty buckets.
 * Timer sums and buckets appear only with `include_timings`; see the
 * determinism contract in the file header.
 */
std::string exportMetricsJson(bool include_timings = false);

/** Human-readable summary table (includes wall-clock timings). */
std::string metricsSummaryTable();

/**
 * Serialize the registry in the Prometheus text exposition format
 * (text/plain; version=0.0.4): counters and gauges as single samples,
 * histograms and timers in cumulative `_bucket{le="..."}` form with
 * `_sum` and `_count`, from which Prometheus derives quantiles.
 * Metric names are prefixed "sqlpp_" with non-alphanumeric characters
 * mapped to '_'. Served live by the status server's /metrics endpoint.
 */
std::string exportMetricsPrometheus();

/**
 * Quantile estimate from power-of-two histogram buckets (the
 * registry's layout: bucket 0 holds the value 0, bucket i covers
 * [2^(i-1), 2^i - 1]). Finds the bucket containing the q-rank and
 * interpolates linearly inside its bounds, Prometheus-style; the
 * overflow bucket returns its lower bound. Returns 0 on empty data.
 */
double histogramQuantileFromBuckets(const uint64_t *buckets,
                                    size_t bucket_count, double q);

/** p50/p95/p99 estimates for one histogram/timer metric. */
struct HistogramQuantiles
{
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/**
 * Compute p50/p95/p99 for a registered histogram/timer from its
 * bucket counts summed across lanes. False when the metric is
 * unknown, scalar, or has no observations.
 */
bool metricQuantiles(const std::string &name, HistogramQuantiles &out);

/**
 * Pre-register the platform's metric universe so exported documents
 * have a stable shape regardless of which code paths ran. Idempotent.
 * EXPERIMENTS.md documents every name listed here.
 */
void declarePlatformMetrics();

// ---------------------------------------------------------------------
// Instrumentation macros. Names passed to them must be string literals
// (they are resolved once per call site).
// ---------------------------------------------------------------------

#define SQLPP_METRICS_CAT2(a, b) a##b
#define SQLPP_METRICS_CAT(a, b) SQLPP_METRICS_CAT2(a, b)

/** Hot-path counter increment; resolves the slot once per call site. */
#define SQLPP_COUNT(name) SQLPP_COUNT_N(name, 1)

#define SQLPP_COUNT_N(name, n)                                          \
    do {                                                                \
        static const size_t sqlpp_metric_slot =                         \
            ::sqlpp::MetricsRegistry::instance().metricId(              \
                name, ::sqlpp::MetricKind::Counter);                    \
        ::sqlpp::MetricsRegistry::instance().add(sqlpp_metric_slot,     \
                                                 (n));                  \
    } while (0)

/** Hot-path histogram observation of a logical value. */
#define SQLPP_OBSERVE(name, value)                                      \
    do {                                                                \
        static const size_t sqlpp_metric_slot =                         \
            ::sqlpp::MetricsRegistry::instance().metricId(              \
                name, ::sqlpp::MetricKind::Histogram);                  \
        ::sqlpp::MetricsRegistry::instance().observe(sqlpp_metric_slot, \
                                                     (value));          \
    } while (0)

/**
 * Observe a wall-clock duration in microseconds. Distinct from
 * SQLPP_OBSERVE: the metric registers as a Timer, so its
 * (nondeterministic) values stay out of the default JSON export.
 */
#define SQLPP_OBSERVE_TIME(name, micros)                                \
    do {                                                                \
        static const size_t sqlpp_metric_slot =                         \
            ::sqlpp::MetricsRegistry::instance().metricId(              \
                name, ::sqlpp::MetricKind::Timer);                      \
        ::sqlpp::MetricsRegistry::instance().observe(sqlpp_metric_slot, \
                                                     (micros));         \
    } while (0)

/** Hot-path gauge store. */
#define SQLPP_GAUGE_SET(name, value)                                    \
    do {                                                                \
        static const size_t sqlpp_metric_slot =                         \
            ::sqlpp::MetricsRegistry::instance().metricId(              \
                name, ::sqlpp::MetricKind::Gauge);                      \
        ::sqlpp::MetricsRegistry::instance().set(sqlpp_metric_slot,     \
                                                 (value));              \
    } while (0)

/**
 * RAII timing span: records wall-clock microseconds into the named
 * Timer metric when the enclosing scope exits.
 */
#define SQLPP_SPAN(name)                                                \
    static const size_t SQLPP_METRICS_CAT(sqlpp_span_slot_,             \
                                          __LINE__) =                   \
        ::sqlpp::MetricsRegistry::instance().metricId(                  \
            name, ::sqlpp::MetricKind::Timer);                          \
    ::sqlpp::MetricsSpan SQLPP_METRICS_CAT(sqlpp_span_, __LINE__)(      \
        SQLPP_METRICS_CAT(sqlpp_span_slot_, __LINE__))

} // namespace sqlpp

#endif // SQLPP_UTIL_METRICS_H

#include "util/metrics.h"

#include <algorithm>
#include <bit>

#include "util/enum_table.h"
#include "util/strutil.h"

namespace sqlpp {

namespace {

/** One row of the metric-kind table. */
struct MetricKindInfo
{
    MetricKind value;
    const char *name;
    /** Cells one metric occupies: histograms add a trailing sum cell. */
    size_t cells;
};

constexpr size_t kHistogramCells = MetricsRegistry::kHistogramBuckets + 1;

constexpr MetricKindInfo kMetricKinds[] = {
    {MetricKind::Counter, "counter", 1},
    {MetricKind::Gauge, "gauge", 1},
    {MetricKind::Histogram, "histogram", kHistogramCells},
    {MetricKind::Timer, "timer", kHistogramCells},
};
static_assert(inEnumOrder(kMetricKinds, MetricKind::Timer),
              "kMetricKinds must list MetricKind in enum order");

} // namespace

const char *
metricKindName(MetricKind kind)
{
    return enumRow(kMetricKinds, kind)->name;
}

MetricsRegistry::MetricsRegistry()
{
    // Fixed capacity up front: hot-path readers index metrics_ without
    // the mutex, so registration must never reallocate the vector.
    metrics_.reserve(kMaxMetrics);
    for (auto &lane : lanes_)
        lane.store(nullptr, std::memory_order_relaxed);
    // Lane 0 always exists so unlabeled hits never branch on creation.
    bindLane(0, "");
}

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry registry;
    return registry;
}

void
MetricsRegistry::bindLane(size_t lane_index, const std::string &label)
{
    // Cold path (once per shard scope): the mutex also orders label
    // writes against the exporters, which read labels under it.
    std::lock_guard<std::mutex> lock(mutex_);
    if (Lane *existing =
            lanes_[lane_index].load(std::memory_order_relaxed);
        existing != nullptr) {
        // A later in-process run may bind the same lane under a new
        // shard layout (slice N, then a dialect): the label follows
        // the latest binding.
        if (existing->label != label)
            existing->label = label;
        return;
    }
    auto lane = std::make_unique<Lane>();
    lane->label = label;
    lane->cells = std::make_unique<std::atomic<uint64_t>[]>(kMaxCells);
    for (size_t i = 0; i < kMaxCells; ++i)
        lane->cells[i].store(0, std::memory_order_relaxed);
    lanes_[lane_index].store(lane.get(), std::memory_order_release);
    lane_storage_.push_back(std::move(lane));
}

size_t
MetricsRegistry::metricId(const std::string &name, MetricKind kind)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = ids_.find(name);
    if (it != ids_.end()) {
        // A name keeps its first kind: another kind's writes through
        // this id could run past its cells into the metrics after it.
        return metrics_[it->second].kind == kind ? it->second
                                                 : kOverflowId;
    }
    size_t cells = enumRow(kMetricKinds, kind)->cells;
    if (metrics_.size() >= kMaxMetrics ||
        next_cell_ + cells > kMaxCells) {
        // Registry full: drop the overflow's writes rather than abort
        // a campaign over an observability limit.
        return kOverflowId;
    }
    Metric metric;
    metric.name = name;
    metric.kind = kind;
    metric.cell = next_cell_;
    next_cell_ += cells;
    size_t id = metrics_.size();
    metrics_.push_back(std::move(metric));
    ids_.emplace(name, id);
    registered_.store(metrics_.size(), std::memory_order_release);
    return id;
}

void
MetricsRegistry::add(size_t id, uint64_t delta)
{
    if (id >= registered_.load(std::memory_order_acquire))
        return;
    Lane *lane_ptr = lane(currentShardLane());
    lane_ptr->cells[metrics_[id].cell].fetch_add(
        delta, std::memory_order_relaxed);
}

void
MetricsRegistry::set(size_t id, uint64_t value)
{
    if (id >= registered_.load(std::memory_order_acquire))
        return;
    Lane *lane_ptr = lane(currentShardLane());
    lane_ptr->cells[metrics_[id].cell].store(value,
                                             std::memory_order_relaxed);
}

size_t
MetricsRegistry::bucketIndex(uint64_t value)
{
    if (value == 0)
        return 0;
    size_t width = static_cast<size_t>(std::bit_width(value));
    return std::min(width, kHistogramBuckets - 1);
}

uint64_t
MetricsRegistry::bucketUpperBound(size_t bucket)
{
    if (bucket == 0)
        return 0;
    if (bucket >= kHistogramBuckets - 1)
        return UINT64_MAX;
    return (uint64_t{1} << bucket) - 1;
}

void
MetricsRegistry::observe(size_t id, uint64_t value)
{
    if (id >= registered_.load(std::memory_order_acquire))
        return;
    const Metric &metric = metrics_[id];
    Lane *lane_ptr = lane(currentShardLane());
    lane_ptr->cells[metric.cell + bucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
    lane_ptr->cells[metric.cell + kHistogramBuckets].fetch_add(
        value, std::memory_order_relaxed);
}

size_t
MetricsRegistry::registered() const
{
    return registered_.load(std::memory_order_acquire);
}

MetricsRegistry::MetricSnapshot
MetricsRegistry::read(const Metric &metric) const
{
    MetricSnapshot snap;
    snap.name = metric.name;
    snap.kind = metric.kind;
    bool scalar = metric.kind == MetricKind::Counter ||
                  metric.kind == MetricKind::Gauge;
    for (size_t index = 0; index <= kMaxShards; ++index) {
        const Lane *lane_ptr = lane(index);
        if (lane_ptr == nullptr)
            continue;
        const std::atomic<uint64_t> *cells = &lane_ptr->cells[metric.cell];
        if (scalar) {
            uint64_t value = cells[0].load(std::memory_order_relaxed);
            if (value != 0 && index != 0)
                snap.shards.emplace_back(lane_ptr->label, value);
            if (metric.kind == MetricKind::Gauge)
                snap.total = std::max(snap.total, value);
            else
                snap.total += value;
            continue;
        }
        for (size_t b = 0; b < kHistogramBuckets; ++b) {
            uint64_t hits = cells[b].load(std::memory_order_relaxed);
            snap.buckets[b] += hits;
            snap.count += hits;
        }
        snap.sum +=
            cells[kHistogramBuckets].load(std::memory_order_relaxed);
    }
    return snap;
}

std::vector<MetricsRegistry::MetricSnapshot>
MetricsRegistry::snapshot() const
{
    std::vector<MetricSnapshot> snapshots;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        snapshots.reserve(metrics_.size());
        for (const Metric &metric : metrics_)
            snapshots.push_back(read(metric));
    }
    std::sort(snapshots.begin(), snapshots.end(),
              [](const MetricSnapshot &a, const MetricSnapshot &b) {
                  return a.name < b.name;
              });
    return snapshots;
}

uint64_t
MetricsRegistry::counterTotal(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = ids_.find(name);
    return it == ids_.end() ? 0 : read(metrics_[it->second]).total;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t index = 0; index <= kMaxShards; ++index) {
        Lane *lane_ptr = lane(index);
        if (lane_ptr == nullptr)
            continue;
        for (size_t cell = 0; cell < kMaxCells; ++cell)
            lane_ptr->cells[cell].store(0, std::memory_order_relaxed);
    }
}

// ---------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------

using MetricSnapshot = MetricsRegistry::MetricSnapshot;

std::string
exportMetricsJson(bool include_timings)
{
    std::string out = "{\n  \"schema\": \"sqlpp.metrics.v1\",\n"
                      "  \"metrics\": [";
    bool first = true;
    for (const MetricSnapshot &snap :
         MetricsRegistry::instance().snapshot()) {
        bool scalar = snap.kind == MetricKind::Counter ||
                      snap.kind == MetricKind::Gauge;
        if (!first)
            out += ",";
        first = false;
        out += format("\n    {\"name\": \"%s\", \"kind\": \"%s\"",
                      jsonEscape(snap.name).c_str(),
                      metricKindName(snap.kind));
        if (scalar) {
            out += format(", \"total\": %llu",
                          (unsigned long long)snap.total);
            if (!snap.shards.empty()) {
                out += ", \"shards\": [";
                for (size_t i = 0; i < snap.shards.size(); ++i) {
                    if (i > 0)
                        out += ", ";
                    out += format(
                        "{\"shard\": \"%s\", \"value\": %llu}",
                        jsonEscape(snap.shards[i].first).c_str(),
                        (unsigned long long)snap.shards[i].second);
                }
                out += "]";
            }
        } else {
            out += format(", \"count\": %llu",
                          (unsigned long long)snap.count);
            bool values = snap.kind == MetricKind::Histogram ||
                          include_timings;
            if (values) {
                out += format(", \"sum\": %llu",
                              (unsigned long long)snap.sum);
                out += ", \"buckets\": [";
                bool first_bucket = true;
                for (size_t b = 0;
                     b < MetricsRegistry::kHistogramBuckets; ++b) {
                    if (snap.buckets[b] == 0)
                        continue;
                    if (!first_bucket)
                        out += ", ";
                    first_bucket = false;
                    uint64_t bound =
                        MetricsRegistry::bucketUpperBound(b);
                    if (bound == UINT64_MAX)
                        out += format("{\"le\": \"inf\", \"count\": "
                                      "%llu}",
                                      (unsigned long long)
                                          snap.buckets[b]);
                    else
                        out += format(
                            "{\"le\": %llu, \"count\": %llu}",
                            (unsigned long long)bound,
                            (unsigned long long)snap.buckets[b]);
                }
                out += "]";
            }
        }
        out += "}";
    }
    out += "\n  ]\n}\n";
    return out;
}

std::string
metricsSummaryTable()
{
    std::string out =
        format("%-40s %-9s %12s %14s %10s %10s %10s\n", "metric",
               "kind", "count", "total/avg", "p50", "p95", "p99");
    for (const MetricSnapshot &snap :
         MetricsRegistry::instance().snapshot()) {
        double p50 = histogramQuantileFromBuckets(
            snap.buckets, MetricsRegistry::kHistogramBuckets, 0.50);
        double p95 = histogramQuantileFromBuckets(
            snap.buckets, MetricsRegistry::kHistogramBuckets, 0.95);
        double p99 = histogramQuantileFromBuckets(
            snap.buckets, MetricsRegistry::kHistogramBuckets, 0.99);
        switch (snap.kind) {
          case MetricKind::Counter:
          case MetricKind::Gauge:
            if (snap.total == 0)
                continue;
            out += format("%-40s %-9s %12s %14llu %10s %10s %10s\n",
                          snap.name.c_str(), metricKindName(snap.kind),
                          "-", (unsigned long long)snap.total, "-", "-",
                          "-");
            break;
          case MetricKind::Histogram:
            if (snap.count == 0)
                continue;
            out += format(
                "%-40s %-9s %12llu %14.1f %10.0f %10.0f %10.0f\n",
                snap.name.c_str(), metricKindName(snap.kind),
                (unsigned long long)snap.count,
                static_cast<double>(snap.sum) /
                    static_cast<double>(snap.count),
                p50, p95, p99);
            break;
          case MetricKind::Timer:
            if (snap.count == 0)
                continue;
            out += format(
                "%-40s %-9s %12llu %12.1fus %8.0fus %8.0fus %8.0fus\n",
                snap.name.c_str(), metricKindName(snap.kind),
                (unsigned long long)snap.count,
                static_cast<double>(snap.sum) /
                    static_cast<double>(snap.count),
                p50, p95, p99);
            break;
        }
    }
    return out;
}

double
histogramQuantileFromBuckets(const uint64_t *buckets,
                             size_t bucket_count, double q)
{
    if (buckets == nullptr || bucket_count == 0)
        return 0.0;
    uint64_t total = 0;
    for (size_t i = 0; i < bucket_count; ++i)
        total += buckets[i];
    if (total == 0)
        return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    double rank = q * static_cast<double>(total);
    double cumulative = 0.0;
    for (size_t i = 0; i < bucket_count; ++i) {
        if (buckets[i] == 0)
            continue;
        double next = cumulative + static_cast<double>(buckets[i]);
        if (next >= rank) {
            // Bucket 0 holds the value 0 exactly; bucket i covers
            // [2^(i-1), 2^i - 1]. Interpolate linearly within the
            // bucket's bounds, Prometheus-style.
            if (i == 0)
                return 0.0;
            double lower = static_cast<double>(uint64_t{1} << (i - 1));
            if (i >= bucket_count - 1)
                return lower; // overflow bucket: clamp to lower bound
            double upper =
                static_cast<double>((uint64_t{1} << i) - 1);
            double within =
                (rank - cumulative) / static_cast<double>(buckets[i]);
            return lower + (upper - lower) * within;
        }
        cumulative = next;
    }
    // Unreachable when total > 0; keep the compiler satisfied.
    return 0.0;
}

namespace {

/** Map a dotted metric name to Prometheus form ("sqlpp_a_b_c"). */
std::string
prometheusName(const std::string &name)
{
    std::string out = "sqlpp_";
    out.reserve(out.size() + name.size());
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_';
        out.push_back(ok ? c : '_');
    }
    return out;
}

} // namespace

std::string
exportMetricsPrometheus()
{
    // Every registered metric is emitted, zero or not: a scraper wants a
    // stable series set, not one that flickers as counters first fire.
    std::string out;
    for (const MetricSnapshot &snap :
         MetricsRegistry::instance().snapshot()) {
        std::string name = prometheusName(snap.name);
        switch (snap.kind) {
          case MetricKind::Counter:
          case MetricKind::Gauge:
            out += format("# TYPE %s %s\n", name.c_str(),
                          metricKindName(snap.kind));
            out += format("%s %llu\n", name.c_str(),
                          (unsigned long long)snap.total);
            break;
          case MetricKind::Histogram:
          case MetricKind::Timer: {
            out += format("# TYPE %s histogram\n", name.c_str());
            // Cumulative counts at each non-empty upper bound, then
            // the mandatory +Inf bucket carrying the full count.
            uint64_t cumulative = 0;
            for (size_t b = 0;
                 b < MetricsRegistry::kHistogramBuckets; ++b) {
                if (snap.buckets[b] == 0)
                    continue;
                cumulative += snap.buckets[b];
                uint64_t bound = MetricsRegistry::bucketUpperBound(b);
                if (bound == UINT64_MAX)
                    continue; // folded into +Inf below
                out += format("%s_bucket{le=\"%llu\"} %llu\n",
                              name.c_str(), (unsigned long long)bound,
                              (unsigned long long)cumulative);
            }
            out += format("%s_bucket{le=\"+Inf\"} %llu\n",
                          name.c_str(),
                          (unsigned long long)snap.count);
            out += format("%s_sum %llu\n", name.c_str(),
                          (unsigned long long)snap.sum);
            out += format("%s_count %llu\n", name.c_str(),
                          (unsigned long long)snap.count);
            break;
          }
        }
    }
    return out;
}

} // namespace sqlpp

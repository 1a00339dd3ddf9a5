/**
 * @file
 * Campaign flight recorder: low-overhead structured event tracing.
 *
 * Metrics (util/metrics.h) answer "how many"; the flight recorder
 * answers "what happened, in what order, right before X". Every shard
 * owns a fixed-capacity ring buffer of typed events — statement
 * executed, error class, oracle check, feature suppressed, plan
 * discovered, budget exhausted, bug found, checkpoint written, shard
 * abandoned — each stamped with a *logical tick*: the shard's
 * statement index, never a wall clock. Because ticks are logical and
 * lanes are keyed by shard index (the same ShardScope binding the
 * metric lanes use, util/shard_scope.h), a trace is byte-identical
 * across runs for a fixed seed with one worker and merges
 * deterministically in shard order for any worker count — worker
 * threads change nothing but wall-clock time.
 *
 * Hot-path discipline mirrors util/metrics.h: recording an event is a
 * single fetch_add to reserve a ring slot plus a bounded copy into
 * fixed storage; no locks, no allocation. Each shard executes on one
 * thread at a time (the scheduler's share-nothing contract), so slot
 * reservation is the only synchronization the writer needs. The ring
 * keeps the newest kRingCapacity events per lane; older events are
 * dropped (counted, reported in the export header) — a flight
 * recorder keeps the tail of the story, the metrics keep the totals.
 *
 * Export: exportTraceJsonl() renders the recorder as line-oriented
 * JSON (schema "sqlpp.trace.v1"): one header line, then one line per
 * event, lanes in lane-index order, events oldest first. The document
 * contains no wall-clock values, so it inherits the determinism
 * contract above. scripts/trace_to_chrome.py converts the JSONL into
 * the Chrome trace-event format for rendering in Perfetto.
 */
#ifndef SQLPP_UTIL_TRACE_H
#define SQLPP_UTIL_TRACE_H

#include <atomic>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/enum_table.h"
#include "util/shard_scope.h"

namespace sqlpp {

/** What a flight-recorder event witnessed. */
enum class TraceEventType : uint8_t
{
    /** A statement executed successfully (a = 1). */
    StatementExecuted = 0,
    /** A statement failed; detail names the error class. */
    ErrorClass,
    /** An oracle check finished; detail = oracle, a = outcome. */
    OracleCheck,
    /** Validity feedback suppressed a feature (a = id, b = ppm). */
    FeatureSuppressed,
    /** A never-before-seen plan fingerprint (a = fingerprint). */
    PlanDiscovered,
    /** The execution budget cut a statement short. */
    BudgetExhausted,
    /** An oracle flagged a bug; detail = oracle, a = bug ordinal. */
    BugFound,
    /** The reducer finished a case (a = replays, b = setup kept). */
    ReduceDone,
    /** Learning-curve sample (a = window attempted, b = window valid). */
    CurveSample,
    /** A campaign checkpoint was rewritten (a = payload bytes). */
    CheckpointWritten,
    /** A shard was restored from a checkpoint (a = shard index). */
    CheckpointRestored,
    /** A shard began executing; detail = dialect/slice label. */
    ShardStarted,
    /** The watchdog abandoned a shard at its deadline. */
    ShardAbandoned,
};

/** Snake_case name of every event type, in enum order. */
inline constexpr EnumName<TraceEventType> kTraceEventNames[] = {
    {TraceEventType::StatementExecuted, "statement_executed"},
    {TraceEventType::ErrorClass, "error_class"},
    {TraceEventType::OracleCheck, "oracle_check"},
    {TraceEventType::FeatureSuppressed, "feature_suppressed"},
    {TraceEventType::PlanDiscovered, "plan_discovered"},
    {TraceEventType::BudgetExhausted, "budget_exhausted"},
    {TraceEventType::BugFound, "bug_found"},
    {TraceEventType::ReduceDone, "reduce_done"},
    {TraceEventType::CurveSample, "curve_sample"},
    {TraceEventType::CheckpointWritten, "checkpoint_written"},
    {TraceEventType::CheckpointRestored, "checkpoint_restored"},
    {TraceEventType::ShardStarted, "shard_started"},
    {TraceEventType::ShardAbandoned, "shard_abandoned"},
};
static_assert(inEnumOrder(kTraceEventNames, TraceEventType::ShardAbandoned),
              "kTraceEventNames must list TraceEventType in enum order");

/** Number of distinct event types (bounds arrays and validation). */
inline constexpr size_t kTraceEventTypes = std::size(kTraceEventNames);

/** Stable snake_case name of an event type ("statement_executed"). */
const char *traceEventTypeName(TraceEventType type);

/** One recorded event. Fixed-size so the ring never allocates. */
struct TraceEvent
{
    /** Capacity of the inline detail string (including the NUL). */
    static constexpr size_t kDetailCapacity = 23;

    /** Logical tick: the lane's statement index at record time. */
    uint64_t tick = 0;
    /** Type-specific payloads (fingerprints, counts, ids). */
    uint64_t a = 0;
    uint64_t b = 0;
    TraceEventType type = TraceEventType::StatementExecuted;
    /** Short context string (oracle name, error class); truncated. */
    char detail[kDetailCapacity] = {};
};

// The ring stores events as word-packed relaxed atomics so the live
// /trace endpoint can read concurrently with campaign writers.
static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "TraceEvent must memcpy in and out of the ring");
static_assert(sizeof(TraceEvent) % sizeof(uint64_t) == 0,
              "TraceEvent must pack into whole uint64_t words");

/** A lane that recorded at least one event, as the exports see it. */
struct TraceLane
{
    size_t index = 0;
    std::string label;
    /** Events ever recorded into the lane (retained + dropped). */
    uint64_t recorded = 0;
};

/** Process-wide flight recorder with per-shard ring-buffer lanes. */
class TraceRecorder
{
  public:
    /** Events retained per lane; older events are dropped. */
    static constexpr size_t kRingCapacity = 4096;

    TraceRecorder();

    /** The process-wide instance all instrumentation feeds. */
    static TraceRecorder &instance();

    /**
     * Advance the current lane's logical tick by one (called once per
     * executed statement) and return the new tick value.
     */
    uint64_t bumpTick();

    /** The current lane's tick without advancing it. */
    uint64_t currentTick() const;

    /**
     * Record one event into the current lane, stamped with the lane's
     * current tick (hot path; lock-free).
     */
    void record(TraceEventType type, std::string_view detail,
                uint64_t a = 0, uint64_t b = 0);

    /** Events currently retained in a lane (ring order, oldest first). */
    std::vector<TraceEvent> laneEvents(size_t lane_index) const;

    /**
     * The newest `max_events` events of the lane bound to a shard
     * index (the dossier writer's "last N before the bug" view).
     */
    std::vector<TraceEvent> recentShardEvents(size_t shard_index,
                                              size_t max_events) const;

    /** Events ever recorded into a lane (retained + dropped). */
    uint64_t laneRecorded(size_t lane_index) const;

    /** Label of a lane ("" when unlabeled/unused). */
    std::string laneLabel(size_t lane_index) const;

    /**
     * The one lane walk behind every export: each lane with at least
     * one recorded event, in lane order, labels read under one hold
     * of the mutex. Ring contents stay where they are; exporters read
     * them lane by lane through laneEvents().
     */
    std::vector<TraceLane> usedLanes() const;

    /**
     * Zero every lane's ring, tick, and event count. Campaign drivers
     * call this before a run so repeated in-process runs start clean.
     */
    void reset();

  private:
    friend class ShardScope;

    /** Words one packed event occupies in the ring. */
    static constexpr size_t kEventWords =
        sizeof(TraceEvent) / sizeof(uint64_t);

    /** One shard's ring. Allocated lazily; pointer never moves. */
    struct Lane
    {
        std::string label;
        std::atomic<uint64_t> tick{0};
        /** Events ever recorded; head slot = recorded % capacity. */
        std::atomic<uint64_t> recorded{0};
        /**
         * kRingCapacity slots of kEventWords relaxed-atomic words
         * each, plus a per-slot seqlock version (util/seqlock.h).
         * Writers were always safe (one thread per shard); the
         * packing is for the *readers* the status server added —
         * laneEvents() snapshots a slot without tearing while the
         * campaign is still recording into it.
         */
        std::unique_ptr<std::atomic<uint64_t>[]> ring;
        std::unique_ptr<std::atomic<uint64_t>[]> versions;
    };

    /** Seqlock read of one slot; false when a writer kept racing it. */
    static bool readSlot(const Lane &lane, size_t slot,
                         TraceEvent *out);

    /** Create a lane's ring if absent and set its label. */
    void bindLane(size_t lane_index, const std::string &label);

    Lane *lane(size_t lane_index) const
    {
        return lanes_[lane_index].load(std::memory_order_acquire);
    }

    /** Guards lane creation and label writes only. */
    mutable std::mutex mutex_;
    std::atomic<Lane *> lanes_[kMaxShards + 1];
    std::vector<std::unique_ptr<Lane>> lane_storage_;
};

/**
 * Serialize the recorder as line-oriented JSON (schema
 * "sqlpp.trace.v1"): one header line, then one line per retained
 * event, lanes in lane-index order, events oldest first. Contains no
 * wall-clock values — byte-identical across runs for a fixed seed
 * with one worker, and identical for any worker count.
 */
std::string exportTraceJsonl();

/**
 * Incremental drain for the status server's /trace endpoint: only
 * events with tick > `since_tick`, same line format as
 * exportTraceJsonl() but with header schema "sqlpp.trace.delta.v1"
 * carrying `since` and `tick` (the maximum tick across lanes) so a
 * client can resume from where this response left off.
 */
std::string exportTraceDeltaJsonl(uint64_t since_tick);

/**
 * Events lost to ring overwrite across all lanes (recorded minus
 * retained) — the number the campaign.trace.dropped gauge carries.
 */
uint64_t traceDroppedTotal();

/** Render one event as its JSONL line (no trailing newline). */
std::string traceEventJson(size_t lane_index, const std::string &label,
                           const TraceEvent &event);

/**
 * Stable description of the sqlpp.trace.v1 schema — field names,
 * field types, and the event-type vocabulary — pinned by the golden
 * test in tests/golden/trace_schema.txt.
 */
std::string traceSchemaDescription();

// ---------------------------------------------------------------------
// Instrumentation macros. Hot call sites pay one fetch_add + bounded
// copy.
// ---------------------------------------------------------------------

/** Advance the current lane's logical tick (one executed statement). */
#define SQLPP_TRACE_TICK()                                              \
    do {                                                                \
        ::sqlpp::TraceRecorder::instance().bumpTick();                  \
    } while (0)

/** Record one flight-recorder event in the current lane. */
#define SQLPP_TRACE_EVENT(type, detail, a, b)                           \
    do {                                                                \
        ::sqlpp::TraceRecorder::instance().record(                      \
            ::sqlpp::TraceEventType::type, (detail),                    \
            static_cast<uint64_t>(a), static_cast<uint64_t>(b));        \
    } while (0)

} // namespace sqlpp

#endif // SQLPP_UTIL_TRACE_H

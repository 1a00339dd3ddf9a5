/**
 * @file
 * CampaignProgress: live, lock-free aggregation of campaign state.
 *
 * Metrics count events and the trace records them; neither answers the
 * operator's question mid-run: "how far along is each shard, is
 * anything stuck, and when will this finish?" The ProgressBoard holds
 * one fixed cell per shard lane (util/shard_scope.h) — plain relaxed
 * atomics written by the shard's executing thread, read by the status
 * server and the --progress printer. The same ShardScope that binds a
 * thread's metric and trace lanes binds its cell; cell 0 is the
 * unbound sink that notes from outside any scope land in, and the
 * snapshot never reads it. The board is observability only: nothing
 * in it ever feeds back into generation, merging, checkpointing, or
 * dossier writing, so polling it cannot perturb a campaign (the
 * status determinism test pins bit-identical merged stats, checkpoint
 * bytes, and dossier ids with and without a polling storm).
 *
 * Write discipline: exactly one thread writes a shard's cell at a time
 * — the scheduler during init/finish (before workers start / after
 * they join) and the owning shard thread while running. Numeric
 * fields are relaxed atomics; the two short strings (shard label,
 * bandit leader) go through a single-writer seqlock (util/seqlock.h)
 * so a concurrent reader can only ever retry, never tear.
 *
 * The progress counters deliberately stay in the cell rather than
 * being derived from metric lanes: a restored shard's totals come from
 * its checkpoint (it never writes a metric lane in this process), and
 * beginCampaign() zeroes the board while metric lanes are zeroed only
 * by an explicit MetricsRegistry::reset().
 *
 * Stall diagnosis: every check advances the cell's logical tick and a
 * wall-clock "last advanced" stamp. A shard that is Running but has
 * not advanced for longer than the stall threshold gets a `stalled`
 * verdict in the snapshot, and renderStatusJson() attaches the
 * shard's most recent flight-recorder events — turning the watchdog's
 * silent abandonment into an explainable report while it is
 * happening.
 *
 * The same CampaignProgress snapshot renders both the /status JSON
 * document (schema "sqlpp.status.v1") and the periodic one-line
 * --progress report, so the two views can never disagree.
 */
#ifndef SQLPP_CORE_PROGRESS_H
#define SQLPP_CORE_PROGRESS_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/shard_scope.h"

namespace sqlpp {

/** Lifecycle of one shard as the board sees it. */
enum class ShardState : uint64_t
{
    Pending = 0,
    Running,
    Done,
    /** Skipped this run: restored from a resumed checkpoint. */
    Restored,
    /** The watchdog deadline abandoned it mid-run. */
    Abandoned,
};

/** Stable lowercase name of a ShardState ("running"). */
const char *shardStateName(ShardState state);

/** One shard's progress, read out of the board's atomics. */
struct ShardProgress
{
    size_t shardIndex = 0;
    std::string label;
    ShardState state = ShardState::Pending;
    uint64_t seed = 0;
    uint64_t checksTarget = 0;
    uint64_t checksAttempted = 0;
    uint64_t checksValid = 0;
    uint64_t bugsDetected = 0;
    uint64_t plans = 0;
    /** Statements cut short by the execution budget (budget spend). */
    uint64_t resourceErrors = 0;
    /** Features suppressed by the validity posterior. */
    uint64_t suppressed = 0;
    uint64_t setupGenerated = 0;
    uint64_t setupSucceeded = 0;
    /** The shard's trace-lane logical tick (statement index). */
    uint64_t tick = 0;
    /** Watchdog deadline in seconds (0 = none). */
    double deadlineSeconds = 0.0;
    /** Leading bandit arm under guided generation ("" when off). */
    std::string banditLeader;
    /** Seconds since the shard last advanced (< 0: never advanced). */
    double lastAdvanceSeconds = -1.0;
    /** Running, but silent past the stall threshold. */
    bool stalled = false;

    double
    validityRate() const
    {
        return checksAttempted == 0
                   ? 0.0
                   : static_cast<double>(checksValid) /
                         static_cast<double>(checksAttempted);
    }
};

/** A whole-campaign snapshot: what /status and --progress render. */
struct CampaignProgress
{
    /** A campaign is registered and has not finished. */
    bool active = false;
    size_t workers = 0;
    size_t shardsTotal = 0;
    size_t shardsDone = 0;
    size_t shardsRunning = 0;
    size_t shardsRestored = 0;
    size_t shardsAbandoned = 0;
    uint64_t checksTarget = 0;
    uint64_t checksAttempted = 0;
    uint64_t checksValid = 0;
    uint64_t bugsDetected = 0;
    /** Sum of per-shard distinct plan counts (not a cross-shard union). */
    uint64_t plans = 0;
    uint64_t resourceErrors = 0;
    double uptimeSeconds = 0.0;
    /** Attempted checks over uptime. */
    double checksPerSecond = 0.0;
    /** Remaining checks over the current rate (< 0: unknown). */
    double etaSeconds = -1.0;
    double stallThresholdSeconds = 0.0;
    std::vector<ShardProgress> shards;

    double
    validityRate() const
    {
        return checksAttempted == 0
                   ? 0.0
                   : static_cast<double>(checksValid) /
                         static_cast<double>(checksAttempted);
    }
};

/** Process-wide board of per-shard progress cells. */
class ProgressBoard
{
  public:
    /**
     * Short-string capacities in 8-byte words (label 32 bytes, leader
     * 48 bytes, both NUL-padded). Strings are stored as relaxed atomic
     * words under the cell's seqlock, so concurrent readers are
     * data-race-free and can only ever retry, never tear.
     */
    static constexpr size_t kLabelWords = 4;
    static constexpr size_t kLeaderWords = 6;

    /** One shard's live cells. Single writer, many readers. */
    struct Cell
    {
        std::atomic<uint64_t> state{0};
        std::atomic<uint64_t> seed{0};
        std::atomic<uint64_t> checksTarget{0};
        std::atomic<uint64_t> checksAttempted{0};
        std::atomic<uint64_t> checksValid{0};
        std::atomic<uint64_t> bugsDetected{0};
        std::atomic<uint64_t> plans{0};
        std::atomic<uint64_t> resourceErrors{0};
        std::atomic<uint64_t> suppressed{0};
        std::atomic<uint64_t> setupGenerated{0};
        std::atomic<uint64_t> setupSucceeded{0};
        std::atomic<uint64_t> tick{0};
        /** Watchdog deadline in milliseconds (0 = none). */
        std::atomic<uint64_t> deadlineMs{0};
        /** Monotonic nanoseconds of the last advance (0 = never). */
        std::atomic<uint64_t> lastAdvanceNs{0};
        /** Seqlock for the strings below; odd while being written. */
        std::atomic<uint32_t> version{0};
        std::atomic<uint64_t> label[kLabelWords] = {};
        std::atomic<uint64_t> leader[kLeaderWords] = {};
    };

    static ProgressBoard &instance();

    /** The cell the calling thread is bound to (cell 0 when unbound). */
    static Cell &current();

    /** Monotonic clock in nanoseconds (steady, process-relative). */
    static uint64_t nowNs();

    /**
     * Register a campaign: zero all cells, record the worker count and
     * start time, mark the board active. Called by the scheduler before
     * dispatching shards.
     */
    void beginCampaign(size_t workers, size_t shards,
                       uint64_t checks_target);

    /** Describe one shard before the workers start. */
    void initShard(size_t shard_index, const std::string &label,
                   uint64_t seed, uint64_t checks,
                   double deadline_seconds);

    /** Transition a shard's lifecycle state. */
    void setShardState(size_t shard_index, ShardState state);

    /**
     * Fill a restored shard's cells from its checkpointed totals (the
     * shard never runs in this process, but /status should still show
     * what it contributed).
     */
    void fillRestoredShard(size_t shard_index, uint64_t attempted,
                           uint64_t valid, uint64_t bugs,
                           uint64_t plans, uint64_t resource_errors);

    /** Mark the campaign finished (cells stay for a final scrape). */
    void finishCampaign();

    /**
     * Running-but-silent threshold for the `stalled` verdict
     * (default 10 s). Observability only.
     */
    void setStallThresholdSeconds(double seconds);

    /** Assemble a read-only snapshot (atomic reads only, no locks). */
    CampaignProgress snapshot() const;

    /** The cell a shard index maps to (exposed for tests). */
    Cell &cell(size_t shard_index) { return cells_[shardLane(shard_index)]; }

  private:
    /** Cell 0 is the unbound sink; cell shardLane(i) is shard i's. */
    Cell cells_[kMaxShards + 1];
    std::atomic<bool> active_{false};
    std::atomic<uint64_t> workers_{0};
    std::atomic<uint64_t> shards_{0};
    std::atomic<uint64_t> checksTarget_{0};
    std::atomic<uint64_t> startNs_{0};
    std::atomic<uint64_t> stallThresholdMs_{10000};
};

// ---------------------------------------------------------------------
// Hot-path update helpers. Each is a handful of relaxed atomic stores
// into the bound cell; an unbound thread (tests, benches, standalone
// CampaignRunner use) writes the sink cell, which no snapshot reads.
// ---------------------------------------------------------------------

namespace progress {

/** One oracle check finished; advances the stall clock. */
inline void
noteCheck(bool valid, uint64_t tick)
{
    ProgressBoard::Cell &cell = ProgressBoard::current();
    cell.checksAttempted.fetch_add(1, std::memory_order_relaxed);
    if (valid)
        cell.checksValid.fetch_add(1, std::memory_order_relaxed);
    cell.tick.store(tick, std::memory_order_relaxed);
    cell.lastAdvanceNs.store(ProgressBoard::nowNs(),
                             std::memory_order_relaxed);
}

/** One setup statement executed; advances the stall clock. */
inline void
noteSetup(bool ok)
{
    ProgressBoard::Cell &cell = ProgressBoard::current();
    cell.setupGenerated.fetch_add(1, std::memory_order_relaxed);
    if (ok)
        cell.setupSucceeded.fetch_add(1, std::memory_order_relaxed);
    cell.lastAdvanceNs.store(ProgressBoard::nowNs(),
                             std::memory_order_relaxed);
}

inline void
noteBug()
{
    ProgressBoard::current().bugsDetected.fetch_add(
        1, std::memory_order_relaxed);
}

/** Publish running totals that are cheaper to copy than to count. */
inline void
noteTotals(uint64_t plans, uint64_t resource_errors,
           uint64_t suppressed)
{
    ProgressBoard::Cell &cell = ProgressBoard::current();
    cell.plans.store(plans, std::memory_order_relaxed);
    cell.resourceErrors.store(resource_errors, std::memory_order_relaxed);
    cell.suppressed.store(suppressed, std::memory_order_relaxed);
}

/** Publish the leading bandit arm (single-writer seqlock). */
void noteBanditLeader(const std::string &name);

/** The bound shard marks itself abandoned at the watchdog deadline. */
inline void
noteAbandoned()
{
    ProgressBoard::current().state.store(
        static_cast<uint64_t>(ShardState::Abandoned),
        std::memory_order_relaxed);
}

} // namespace progress

/**
 * Render a snapshot as the versioned "sqlpp.status.v1" JSON document:
 * campaign totals, per-shard progress, and — for any stalled shard —
 * the most recent flight-recorder events as a diagnosis aid.
 */
std::string renderStatusJson(const CampaignProgress &snapshot);

/**
 * Render a snapshot as the periodic one-line stdout report:
 * checks done/target, rate, validity, bugs, shard states, ETA.
 */
std::string renderProgressLine(const CampaignProgress &snapshot);

} // namespace sqlpp

#endif // SQLPP_CORE_PROGRESS_H

/**
 * @file
 * CampaignScheduler: fan one campaign out across worker threads.
 *
 * The paper's headline result is scale — SQLancer++ tests 17 DBMSs
 * concurrently with one adaptive generator. The scheduler reproduces
 * that shape: a campaign is carved into *shards* (one per dialect, or
 * fixed slices of one dialect's check budget), a pool of worker
 * threads drains the shard queue, and results are merged
 * deterministically afterwards.
 *
 * Isolation model: each shard owns its own CampaignRunner — and with
 * it its own Connection, SchemaModel, FeatureRegistry, FeedbackTracker,
 * BugPrioritizer, and Rng stream (campaign seed ⊕ shard index, the
 * convention documented in util/rng.h). Workers share *nothing*
 * mutable but the atomic shard queue, so no locks sit on the
 * generation/execution hot path.
 *
 * Determinism model: the shard layout depends only on the config,
 * never on the worker count, and the post-run merge folds shards in
 * shard-index order. Hence the same seed yields bit-identical merged
 * stats for 1 worker and for N workers — worker count changes
 * wall-clock time, nothing else. Crash safety extends this: every
 * finished shard is serialized into an atomically-rewritten
 * checkpoint file (core/checkpoint.h), all shards — live or resumed —
 * reach the merge through the same serialize/restore round-trip, and
 * so a killed-and-resumed run merges to stats bit-identical to an
 * uninterrupted one. The merge re-runs bug prioritization
 * over the concatenated shard stream (translating feature ids by name
 * into a merged registry), so cross-shard duplicate bugs collapse
 * exactly as they would have in one sequential run, and absorbs every
 * shard's FeedbackTracker into a merged posterior view.
 */
#ifndef SQLPP_CORE_SCHEDULER_H
#define SQLPP_CORE_SCHEDULER_H

#include <memory>
#include <string>
#include <vector>

#include "core/campaign.h"

namespace sqlpp {

/** How the scheduler carves a campaign into shards. */
enum class ScheduleMode
{
    /** Split one dialect's check budget into fixed slices. */
    SliceChecks,
    /** One shard per dialect (the paper's 17-DBMS fleet). */
    ShardDialects,
};

/** Scheduler configuration wrapping one base campaign. */
struct SchedulerConfig
{
    /** Base campaign; per-shard copies adjust seed/checks/dialect. */
    CampaignConfig campaign;
    ScheduleMode mode = ScheduleMode::SliceChecks;
    /** Worker threads draining the shard queue. */
    size_t workers = 1;
    /**
     * Logical shards in SliceChecks mode; 0 = one per worker. Merged
     * results depend only on the slice layout — fix this value when
     * comparing runs across different worker counts.
     */
    size_t slices = 0;
    /** Dialects in ShardDialects mode; empty = all campaign dialects. */
    std::vector<std::string> dialects;
    /**
     * Checkpoint file rewritten (atomically) after every finished
     * shard; empty = no checkpointing. A killed run loses at most its
     * in-flight shards.
     */
    std::string checkpointPath;
    /**
     * Load `checkpointPath` before running and skip shards it already
     * holds. The file must match this configuration (shard-plan
     * fingerprint); a mismatched or unreadable checkpoint logs a
     * warning and the run starts fresh.
     */
    bool resume = false;
    /**
     * Watchdog: per-shard wall-clock deadline in seconds (0 = none),
     * copied into every shard's CampaignConfig::deadlineSeconds.
     */
    double shardDeadlineSeconds = 0.0;
    /**
     * Root directory for per-bug forensic dossiers (core/dossier.h);
     * empty = none. Dossiers are written during the deterministic
     * shard-order merge, so the dossier set (bug ids + repro.sql) is
     * identical for any worker count and covers bugs restored from a
     * checkpoint.
     */
    std::string dossierDir;
};

/** One shard's outcome: the deterministic part plus timing. */
struct ShardOutcome
{
    size_t shardIndex = 0;
    std::string dialect;
    uint64_t seed = 0;
    /** The shard's own (pre-merge) campaign stats. */
    CampaignStats stats;
    /** Prioritized bugs that survived the cross-shard merge. */
    size_t bugsKeptAfterMerge = 0;
    /** Observability only — never feeds the deterministic merge. */
    size_t workerIndex = 0;
    double seconds = 0.0;
    /** Restored from a checkpoint instead of run by this process. */
    bool fromCheckpoint = false;
};

/** Per-worker observability (throughput accounting). */
struct WorkerReport
{
    size_t workerIndex = 0;
    size_t shardsRun = 0;
    uint64_t checksAttempted = 0;
    double busySeconds = 0.0;

    double
    checksPerSecond() const
    {
        return busySeconds > 0.0
                   ? static_cast<double>(checksAttempted) / busySeconds
                   : 0.0;
    }
};

/** The full result of a scheduled run. */
struct ScheduleReport
{
    /** Deterministic merge of every shard, in shard-index order. */
    CampaignStats merged;
    std::vector<ShardOutcome> shards;
    std::vector<WorkerReport> workers;
    /** Shards skipped because a resumed checkpoint already held them. */
    size_t shardsFromCheckpoint = 0;
    /** Dossier directories written (when SchedulerConfig::dossierDir). */
    size_t dossiersWritten = 0;
    /** Wall-clock seconds from first dispatch until the queue drained. */
    double queueDrainSeconds = 0.0;

    /** Merged end-to-end throughput over the drain window. */
    double
    checksPerSecond() const
    {
        return queueDrainSeconds > 0.0
                   ? static_cast<double>(merged.checksAttempted) /
                         queueDrainSeconds
                   : 0.0;
    }
};

/** Fans a campaign out across N workers and merges the results. */
class CampaignScheduler
{
  public:
    explicit CampaignScheduler(SchedulerConfig config);

    /** Resolve the shard layout (exposed for tests and benches). */
    std::vector<CampaignConfig> plan() const;

    /**
     * Fingerprint of the resolved shard plan — every field that shapes
     * a shard's deterministic result. A checkpoint written under one
     * fingerprint cannot be resumed under another.
     */
    uint64_t planFingerprint() const;

    /** Run all shards on the worker pool and merge deterministically. */
    ScheduleReport run();

    /** Merged feedback across shards (valid after run()). */
    const FeedbackTracker &mergedFeedback() const { return *tracker_; }
    /** Merged prioritizer state (valid after run()). */
    const BugPrioritizer &mergedPrioritizer() const
    {
        return prioritizer_;
    }

  private:
    SchedulerConfig config_;
    /** Feedback config for the merged view and restored shards. */
    FeedbackConfig feedback_config_;
    FeatureRegistry registry_;
    std::unique_ptr<FeedbackTracker> tracker_;
    BugPrioritizer prioritizer_;
};

} // namespace sqlpp

#endif // SQLPP_CORE_SCHEDULER_H

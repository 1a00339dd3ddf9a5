#include "core/scheduler.h"

#include <chrono>
#include <mutex>

#include "core/checkpoint.h"
#include "core/dossier.h"
#include "core/progress.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/shard_scope.h"
#include "util/strutil.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace sqlpp {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Canonical text form of everything that shapes one shard's
 * deterministic result. Anything missing here would let a checkpoint
 * resume under a configuration that produces different stats.
 */
std::string
describeShard(const CampaignConfig &config)
{
    const GeneratorConfig &g = config.generator;
    const FeedbackConfig &f = config.feedback;
    const GuidanceConfig &u = config.guidance;
    // "2|1|4|3|10|2|" and "0.25" are the generator's fixed database
    // limits and loose-type probability, once configurable; they stay
    // in the text so existing plan fingerprints and checkpoints match.
    return format(
        "%s|%llu|%d|%d|%s|%zu|%zu|%zu|%d|%d|%llu|%llu|%llu|%g|%d|"
        "%llu|%d|%d|%llu|2|1|4|3|10|2|%d|0.25|"
        "%d|%g|%g|%llu|%llu|%d|%g|%llu",
        config.dialect.c_str(),
        static_cast<unsigned long long>(config.seed),
        static_cast<int>(config.mode),
        static_cast<int>(config.execMode),
        join(config.oracles, ",").c_str(), config.setupStatements,
        config.checks, config.rebuildEvery,
        config.reduce ? 1 : 0, config.disableFaults ? 1 : 0,
        static_cast<unsigned long long>(config.budget.maxSteps),
        static_cast<unsigned long long>(config.budget.maxRows),
        static_cast<unsigned long long>(
            config.budget.maxIntermediateRows),
        config.deadlineSeconds,
        static_cast<int>(config.curveInterval),
        static_cast<unsigned long long>(g.seed), g.maxDepth,
        g.progressiveDepth ? 1 : 0,
        static_cast<unsigned long long>(g.depthStep),
        g.enableSubqueries ? 1 : 0, f.enabled ? 1 : 0, f.threshold,
        f.credibleMass,
        static_cast<unsigned long long>(f.updateInterval),
        static_cast<unsigned long long>(f.ddlFailureLimit),
        static_cast<int>(u.mode), u.exploration,
        static_cast<unsigned long long>(u.salt));
}

} // namespace

CampaignScheduler::CampaignScheduler(SchedulerConfig config)
    : config_(std::move(config))
{
    if (config_.workers == 0)
        config_.workers = 1;
    feedback_config_ = config_.campaign.feedback;
    if (config_.campaign.mode == GeneratorMode::AdaptiveNoFeedback)
        feedback_config_.enabled = false;
    tracker_ = std::make_unique<FeedbackTracker>(feedback_config_);
}

std::vector<CampaignConfig>
CampaignScheduler::plan() const
{
    std::vector<CampaignConfig> shards;
    if (config_.mode == ScheduleMode::ShardDialects) {
        std::vector<std::string> dialects = config_.dialects;
        if (dialects.empty()) {
            for (const DialectProfile *profile : campaignDialects())
                dialects.push_back(profile->name);
        }
        for (const std::string &dialect : dialects) {
            CampaignConfig shard = config_.campaign;
            shard.dialect = dialect;
            if (config_.shardDeadlineSeconds > 0.0)
                shard.deadlineSeconds = config_.shardDeadlineSeconds;
            shards.push_back(std::move(shard));
        }
        return shards;
    }
    size_t slices =
        config_.slices > 0 ? config_.slices : config_.workers;
    size_t per_slice = config_.campaign.checks / slices;
    size_t remainder = config_.campaign.checks % slices;
    for (size_t index = 0; index < slices; ++index) {
        CampaignConfig shard = config_.campaign;
        // Per-shard Rng streams: campaign seed ⊕ shard index, the
        // convention util/rng.h documents. Shard 0 keeps the campaign
        // seed itself.
        shard.seed = config_.campaign.seed ^ index;
        shard.checks = per_slice + (index < remainder ? 1 : 0);
        if (config_.shardDeadlineSeconds > 0.0)
            shard.deadlineSeconds = config_.shardDeadlineSeconds;
        shards.push_back(std::move(shard));
    }
    return shards;
}

uint64_t
CampaignScheduler::planFingerprint() const
{
    uint64_t hash = fnv1a(format(
        "mode=%d|shards=", static_cast<int>(config_.mode)));
    for (const CampaignConfig &shard : plan())
        hash = fnv1a(describeShard(shard) + "\n", hash);
    return hash;
}

ScheduleReport
CampaignScheduler::run()
{
    std::vector<CampaignConfig> shard_configs = plan();
    uint64_t fingerprint = planFingerprint();

    CampaignCheckpoint checkpoint;
    checkpoint.configFingerprint = fingerprint;
    checkpoint.totalShards = shard_configs.size();

    // Shards already finished by a previous (killed) run. Read-only
    // while workers drain the queue.
    std::vector<char> from_checkpoint(shard_configs.size(), 0);
    if (config_.resume && !config_.checkpointPath.empty()) {
        CampaignCheckpoint loaded;
        Status status = loaded.loadFrom(config_.checkpointPath);
        if (!status.isOk()) {
            logWarn("resume requested but checkpoint is unusable (" +
                    status.toString() + "); starting fresh");
        } else if (loaded.configFingerprint != fingerprint ||
                   loaded.totalShards != shard_configs.size()) {
            logWarn("checkpoint " + config_.checkpointPath +
                    " was written under a different campaign "
                    "configuration; starting fresh");
        } else {
            for (auto &[index, payload] : loaded.shards) {
                if (index >= shard_configs.size())
                    continue;
                from_checkpoint[index] = 1;
                checkpoint.shards[index] = std::move(payload);
            }
        }
    }

    const bool persist = !config_.checkpointPath.empty();
    std::mutex checkpoint_mutex;

    SQLPP_GAUGE_SET("scheduler.workers", config_.workers);
    SQLPP_GAUGE_SET("scheduler.shards.total", shard_configs.size());

    // Describe the campaign to the live progress board before any
    // worker starts. The board is observability-only: /status and the
    // --progress printer read it, nothing deterministic does.
    uint64_t checks_target = 0;
    for (const CampaignConfig &shard : shard_configs)
        checks_target += shard.checks;
    ProgressBoard &board = ProgressBoard::instance();
    board.beginCampaign(config_.workers, shard_configs.size(),
                        checks_target);
    // One label per shard, shared by the board and the shard's
    // metric and trace lanes.
    std::vector<std::string> labels;
    for (size_t index = 0; index < shard_configs.size(); ++index) {
        labels.push_back(config_.mode == ScheduleMode::ShardDialects
                             ? shard_configs[index].dialect
                             : format("slice%zu", index));
        board.initShard(index, labels[index], shard_configs[index].seed,
                        shard_configs[index].checks,
                        shard_configs[index].deadlineSeconds);
    }

    IndexQueue queue(shard_configs.size());
    auto dispatch_start = std::chrono::steady_clock::now();
    runOnWorkers(config_.workers, [&](size_t worker_index) {
        for (;;) {
            size_t shard = queue.pop();
            if (shard >= shard_configs.size())
                return;
            if (from_checkpoint[shard] != 0)
                continue;
            // Everything the shard records — metrics, trace events,
            // progress notes — lands in the shard's own lanes, keyed
            // by shard index (never by worker), so per-lane values and
            // their sums are independent of the worker count.
            ShardScope shard_scope(shard, labels[shard]);
            board.setShardState(shard, ShardState::Running);
            SQLPP_TRACE_EVENT(ShardStarted, labels[shard], shard,
                              shard_configs[shard].seed);
            SQLPP_COUNT("scheduler.shards.run");
            SQLPP_OBSERVE_TIME(
                "scheduler.shard.queue_us",
                static_cast<uint64_t>(secondsSince(dispatch_start) *
                                      1e6));
            auto shard_start = std::chrono::steady_clock::now();
            CampaignRunner runner(shard_configs[shard]);
            CampaignStats stats = runner.run();
            double shard_seconds = secondsSince(shard_start);
            SQLPP_OBSERVE_TIME(
                "scheduler.shard.exec_us",
                static_cast<uint64_t>(shard_seconds * 1e6));
            // The watchdog marks its own cell Abandoned; everything
            // else finished cleanly.
            if (stats.shardsAbandoned == 0)
                board.setShardState(shard, ShardState::Done);
            KvStore payload = checkpointShard(
                stats, runner.feedback(), runner.registry(),
                worker_index, shard_seconds);
            std::lock_guard<std::mutex> lock(checkpoint_mutex);
            checkpoint.shards[shard] = std::move(payload);
            if (persist) {
                Status saved =
                    checkpoint.saveTo(config_.checkpointPath);
                if (!saved.isOk())
                    logWarn("failed to write campaign checkpoint: " +
                            saved.toString());
            }
        }
    });

    ScheduleReport report;
    report.queueDrainSeconds = secondsSince(dispatch_start);
    report.workers.resize(config_.workers);
    for (size_t index = 0; index < config_.workers; ++index)
        report.workers[index].workerIndex = index;

    // In dialect-sharding mode every shard keeps its own prioritizer
    // semantics (a sequential multi-dialect campaign never dedups
    // across dialects); the merged prioritizer still records the union
    // view. In slice mode the shards split one dialect's budget, so
    // cross-shard duplicates collapse exactly as in a sequential run.
    bool cross_shard_dedup = config_.mode == ScheduleMode::SliceChecks;

    // Merge in shard-index order. Every shard — run just now or
    // restored from disk — passes through the same payload round-trip,
    // so a resumed run merges inputs identical to an uninterrupted one
    // by construction.
    for (size_t index = 0; index < shard_configs.size(); ++index) {
        auto it = checkpoint.shards.find(index);
        if (it == checkpoint.shards.end()) {
            logWarn(format("shard %zu produced no result; merged "
                           "stats are partial",
                           index));
            continue;
        }
        RestoredShard shard;
        Status restored =
            restoreShard(it->second, feedback_config_, shard);
        if (!restored.isOk()) {
            logWarn(format("shard %zu checkpoint payload is broken "
                           "(%s); merged stats are partial",
                           index, restored.toString().c_str()));
            continue;
        }

        ShardOutcome outcome;
        outcome.shardIndex = index;
        outcome.dialect = shard_configs[index].dialect;
        outcome.seed = shard_configs[index].seed;
        outcome.workerIndex = shard.workerIndex;
        outcome.seconds = shard.seconds;
        outcome.fromCheckpoint = from_checkpoint[index] != 0;

        if (outcome.fromCheckpoint) {
            // The restoring run did not spend this time; the payload's
            // worker index may not even exist in this run's pool.
            board.fillRestoredShard(
                index, shard.stats.checksAttempted,
                shard.stats.checksValid, shard.stats.bugsDetected,
                shard.stats.planFingerprints.size(),
                shard.stats.resourceErrors);
            ++report.shardsFromCheckpoint;
            SQLPP_COUNT("scheduler.shards.resumed");
            SQLPP_TRACE_EVENT(CheckpointRestored,
                              shard_configs[index].dialect, index, 0);
        } else {
            WorkerReport &worker =
                report.workers[shard.workerIndex %
                               report.workers.size()];
            ++worker.shardsRun;
            worker.checksAttempted += shard.stats.checksAttempted;
            worker.busySeconds += shard.seconds;
        }

        CampaignStats contribution = shard.stats;
        std::vector<BugCase> kept;
        for (BugCase &bug : contribution.prioritizedBugs) {
            FeatureSet features;
            for (const std::string &name : bug.featureNames) {
                FeatureId shard_id = shard.registry.find(name);
                FeatureKind kind =
                    shard_id == static_cast<FeatureId>(-1)
                        ? FeatureKind::Property
                        : shard.registry.kind(shard_id);
                features.insert(registry_.intern(name, kind));
            }
            bool fresh = prioritizer_.considerNew(features);
            if (fresh || !cross_shard_dedup)
                kept.push_back(std::move(bug));
        }
        outcome.bugsKeptAfterMerge = kept.size();
        contribution.prioritizedBugs = std::move(kept);

        if (!config_.dossierDir.empty()) {
            // Dossiers are written here — inside the deterministic
            // shard-order merge, over the post-dedup bug set — so the
            // dossier ids are identical for any worker count and are
            // re-emitted for bugs restored from a checkpoint.
            DossierConfig dossier_config;
            dossier_config.directory = config_.dossierDir;
            DossierContext dossier_context;
            dossier_context.shardIndex = index;
            dossier_context.fromCheckpoint = outcome.fromCheckpoint;
            dossier_context.feedback = &shard.feedback;
            dossier_context.registry = &shard.registry;
            for (const BugCase &bug : contribution.prioritizedBugs) {
                Status written = writeBugDossier(dossier_config, bug,
                                                 dossier_context);
                if (written.isOk())
                    ++report.dossiersWritten;
                else
                    logWarn("failed to write dossier for bug " +
                            bugCaseId(bug) + ": " +
                            written.toString());
            }
        }

        tracker_->absorb(shard.feedback, shard.registry, registry_);
        outcome.stats = std::move(shard.stats);
        report.merged.merge(contribution);
        report.shards.push_back(std::move(outcome));
    }
    // Export-time accounting of trace-ring overwrite, then freeze the
    // board (cells stay readable for a final /status scrape).
    SQLPP_GAUGE_SET("campaign.trace.dropped", traceDroppedTotal());
    board.finishCampaign();
    return report;
}

} // namespace sqlpp

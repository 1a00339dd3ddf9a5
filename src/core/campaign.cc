#include "core/campaign.h"

#include <chrono>
#include <optional>

#include "core/progress.h"
#include "parser/parser.h"
#include "util/coverage.h"
#include "sqlir/printer.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/strutil.h"
#include "util/trace.h"

namespace sqlpp {

void
CampaignStats::merge(const CampaignStats &other)
{
    setupGenerated += other.setupGenerated;
    setupSucceeded += other.setupSucceeded;
    checksAttempted += other.checksAttempted;
    checksValid += other.checksValid;
    bugsDetected += other.bugsDetected;
    for (const auto &[oracle, count] : other.bugsByOracle)
        bugsByOracle[oracle] += count;
    checksInapplicable += other.checksInapplicable;
    resourceErrors += other.resourceErrors;
    refreshRetries += other.refreshRetries;
    shardsAbandoned += other.shardsAbandoned;
    for (const CurveSample &sample : other.curve)
        curve.push_back(sample);
    for (const BugCase &bug : other.prioritizedBugs)
        prioritizedBugs.push_back(bug);
    planFingerprints.insert(other.planFingerprints.begin(),
                            other.planFingerprints.end());
}

CampaignRunner::CampaignRunner(CampaignConfig config)
    : config_(std::move(config))
{
    const DialectProfile *profile = findDialect(config_.dialect);
    if (profile == nullptr) {
        logError("unknown dialect: " + config_.dialect);
        profile = &allDialectProfiles().front();
        config_.dialect = profile->name;
    }
    profile_ = *profile;
    initGeneratorStack();
}

CampaignRunner::CampaignRunner(CampaignConfig config,
                               const DialectProfile &profile)
    : config_(std::move(config))
{
    profile_ = profile;
    config_.dialect = profile_.name;
    initGeneratorStack();
}

void
CampaignRunner::initGeneratorStack()
{
    if (config_.disableFaults)
        profile_.faults = FaultSet();
    FeedbackConfig feedback_config = config_.feedback;
    if (config_.mode == GeneratorMode::AdaptiveNoFeedback)
        feedback_config.enabled = false;
    tracker_ = std::make_unique<FeedbackTracker>(feedback_config);
    switch (config_.mode) {
      case GeneratorMode::Adaptive:
        gate_ = std::make_unique<FeedbackGate>(*tracker_);
        break;
      case GeneratorMode::AdaptiveNoFeedback:
        gate_ = std::make_unique<OpenGate>();
        break;
      case GeneratorMode::Baseline:
        gate_ = std::make_unique<ProfileGate>(profile_, registry_);
        break;
    }
    if (config_.guidance.mode != GuidanceMode::Off) {
        GuidanceConfig guidance = config_.guidance;
        if (guidance.salt == 0) {
            // Salt-derive from the (shard-specific) campaign seed, the
            // PQS/EET idiom: each shard explores its own trajectory and
            // resume replays it exactly.
            guidance.salt =
                fnv1a(format("guidance|%llu",
                             (unsigned long long)config_.seed));
        }
        guide_ = std::make_unique<GuidedSelector>(guidance, *tracker_,
                                                  registry_);
        SQLPP_GAUGE_SET("generator.guided.mode",
                        static_cast<int64_t>(guidance.mode));
    }
}

void
CampaignRunner::buildState(Connection &connection, CampaignStats &stats,
                           std::vector<std::string> &setup_log)
{
    SQLPP_SPAN("campaign.setup.wall_us");
    GeneratorConfig generator_config = config_.generator;
    generator_config.seed =
        config_.seed * 0x9e3779b97f4a7c15ULL + stats.setupGenerated + 1;
    AdaptiveGenerator generator(generator_config, registry_, *gate_,
                                model_);
    for (size_t i = 0; i < config_.setupStatements; ++i) {
        GeneratedStatement stmt = generator.generateSetupStatement();
        auto result = connection.executeAdapted(stmt.text);
        bool success = result.isOk();
        tracker_->record(stmt.features, success, /*is_query=*/false);
        generator.noteExecution(stmt, success);
        progress::noteSetup(success);
        ++stats.setupGenerated;
        if (success) {
            ++stats.setupSucceeded;
            setup_log.push_back(stmt.text);
        }
    }
}

CampaignStats
CampaignRunner::run()
{
    SQLPP_SPAN("campaign.run.wall_us");
    SQLPP_COUNT("campaign.runs");
    CampaignStats stats;
    const DialectProfile &profile = profile_;
    auto campaign_start = std::chrono::steady_clock::now();

    std::vector<std::unique_ptr<Oracle>> oracles;
    for (const std::string &name : config_.oracles) {
        auto oracle = makeOracle(name);
        if (oracle != nullptr)
            oracles.push_back(std::move(oracle));
    }
    if (oracles.empty())
        oracles.push_back(makeOracle("TLP"));

    BugPrioritizer prioritizer;

    ConnectionOptions connection_options;
    connection_options.budget = config_.budget;
    connection_options.refreshRetry = config_.refreshRetry;
    connection_options.execMode = config_.execMode;
    // Budget and retry counters live in the connection; fold them into
    // the stats before a connection is replaced (rebuild) or dropped.
    auto collect_counters = [&stats](const Connection &connection) {
        stats.resourceErrors += connection.resourceErrors();
        stats.refreshRetries += connection.refreshRetries();
    };

    auto connection =
        std::make_unique<Connection>(profile, connection_options);
    std::vector<std::string> setup_log;
    model_ = SchemaModel();
    buildState(*connection, stats, setup_log);

    GeneratorConfig generator_config = config_.generator;
    generator_config.seed = config_.seed;
    AdaptiveGenerator generator(generator_config, registry_, *gate_,
                                model_);

    // Guided generation: attach the bandit to the generator's choice
    // points and install the thread-local coverage capture that
    // supplies the probe half of the novelty reward. The capture is
    // per-thread, so concurrent shards never see each other's hits and
    // guided campaigns stay bit-identical for any worker count.
    std::optional<CoverageCapture> capture;
    if (guide_ != nullptr) {
        generator.setGuidance(guide_.get());
        capture.emplace();
    }

    // Learning-curve window counters, reset at every sample.
    uint64_t window_attempted = 0;
    uint64_t window_valid = 0;

    for (size_t check = 0; check < config_.checks; ++check) {
        // Watchdog deadline: give up on the rest of the check budget
        // and return what was gathered; the scheduler merge still
        // consumes the partial stats deterministically.
        if (config_.deadlineSeconds > 0.0 &&
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - campaign_start)
                    .count() >= config_.deadlineSeconds) {
            logWarn(format("campaign on %s hit its %.1fs deadline after "
                           "%zu/%zu checks; abandoning shard",
                           profile.name.c_str(), config_.deadlineSeconds,
                           check, config_.checks));
            stats.shardsAbandoned = 1;
            progress::noteAbandoned();
            SQLPP_COUNT("campaign.watchdog.abandoned");
            SQLPP_TRACE_EVENT(ShardAbandoned, profile.name, check,
                              config_.checks);
            break;
        }
        if (config_.rebuildEvery > 0 && check > 0 &&
            check % config_.rebuildEvery == 0) {
            SQLPP_COUNT("campaign.rebuilds");
            collect_counters(*connection);
            connection =
                std::make_unique<Connection>(profile, connection_options);
            model_ = SchemaModel();
            setup_log.clear();
            buildState(*connection, stats, setup_log);
            if (guide_ != nullptr) {
                // Setup statements are nobody's pull: fold their plans
                // into the stats and discard their probe novelty so the
                // next check's arms are not credited for them.
                for (uint64_t fingerprint : connection->takeNewPlans())
                    stats.planFingerprints.insert(fingerprint);
                if (capture.has_value())
                    (void)capture->takeNewProbes();
            }
        }
        auto shape = generator.generateQueryShape();
        if (!shape.has_value())
            continue;
        ++stats.checksAttempted;
        // Baseline for truncation detection: any resource error during
        // this check voids its novelty reward (a budget-cut result can
        // fabricate "new" plans).
        uint64_t resources_before =
            guide_ != nullptr ? connection->resourceErrors() : 0;
        SQLPP_SPAN("campaign.check.wall_us");
        SQLPP_COUNT("campaign.checks");
        bool all_ran = true;
        for (auto &oracle : oracles) {
            OracleResult result = oracle->check(*connection, *shape);
            if (result.outcome == OracleOutcome::Inapplicable) {
                // Says nothing about the dialect: the shape is outside
                // the oracle's domain. Leave validity feedback alone.
                ++stats.checksInapplicable;
                SQLPP_COUNT("campaign.checks.inapplicable");
                continue;
            }
            if (result.outcome == OracleOutcome::Skipped) {
                all_ran = false;
                continue;
            }
            if (result.outcome != OracleOutcome::Bug)
                continue;
            ++stats.bugsDetected;
            ++stats.bugsByOracle[oracle->name()];
            progress::noteBug();
            SQLPP_COUNT("campaign.bugs.detected");
            SQLPP_TRACE_EVENT(BugFound, oracle->name(),
                              stats.bugsDetected, 0);
            // Attribute the oracle as a feature: cases flagged by
            // different oracles describe different failure modes and
            // must not subsume one another.
            FeatureSet bug_features = shape->features;
            bug_features.insert(registry_.intern(
                features::oracle(oracle->name()), FeatureKind::Property));
            if (!prioritizer.considerNew(bug_features))
                continue;
            SQLPP_COUNT("campaign.bugs.prioritized");
            BugCase bug;
            bug.dialect = profile.name;
            bug.oracle = oracle->name();
            bug.execMode = execModeName(config_.execMode);
            bug.setup = setup_log;
            bug.baseText = printSelect(*shape->base);
            bug.predicateText = printExpr(*shape->predicate);
            for (FeatureId id : bug_features)
                bug.featureNames.push_back(registry_.name(id));
            bug.details = result.details;
            bug.queries = std::move(result.queries);
            if (config_.reduce) {
                // One cache for every replay of this bug, freed with it.
                StatementCache cache;
                reduceBugCase(bug, [&](const BugCase &candidate) {
                    return reproduces(profile, candidate, nullptr,
                                      &cache);
                });
                // The reduced case issues different SQL; refresh the
                // recorded statement list from a final replay so the
                // repro always carries exactly what it runs.
                OracleResult replay;
                if (reproduces(profile, bug, &replay, &cache))
                    bug.queries = std::move(replay.queries);
            }
            stats.prioritizedBugs.push_back(std::move(bug));
        }
        if (all_ran)
            ++stats.checksValid;
        progress::noteCheck(all_ran,
                            TraceRecorder::instance().currentTick());
        tracker_->record(shape->features, all_ran, /*is_query=*/true);
        ++window_attempted;
        if (all_ran)
            ++window_valid;
        // Drain only the plans this check added; re-inserting the full
        // seenPlans() set here made a campaign O(checks x plans). Done
        // before the curve sample so CurveSample::cumPlans includes
        // this check's discoveries.
        uint64_t novel_plans = 0;
        for (uint64_t fingerprint : connection->takeNewPlans()) {
            if (stats.planFingerprints.insert(fingerprint).second)
                ++novel_plans;
        }
        if (guide_ != nullptr) {
            uint64_t novel_probes =
                capture.has_value() ? capture->takeNewProbes() : 0;
            bool truncated =
                connection->resourceErrors() > resources_before;
            // Truncated checks earn nothing: a budget-cut execution can
            // surface a "new" plan or probe that a full run never would.
            uint64_t novelty =
                truncated ? 0 : novel_plans + novel_probes;
            if (truncated)
                SQLPP_COUNT("generator.guided.truncated");
            if (novelty > 0) {
                SQLPP_COUNT_N("generator.guided.novelty",
                              static_cast<int64_t>(novelty));
            }
            guide_->reward(shape->arms, novelty);
        }
        // Publish slower-moving totals to the progress board every few
        // dozen checks; suppressedFeatures() and leader() walk the
        // feature table, too heavy for every iteration.
        if (check % 32 == 0) {
            progress::noteTotals(
                stats.planFingerprints.size(),
                stats.resourceErrors + connection->resourceErrors(),
                tracker_->suppressedFeatures().size());
            if (guide_ != nullptr)
                progress::noteBanditLeader(guide_->leader());
        }
        if (config_.curveInterval > 0 &&
            stats.checksAttempted % config_.curveInterval == 0) {
            CurveSample sample;
            sample.tick = stats.checksAttempted;
            sample.cumAttempted = stats.checksAttempted;
            sample.cumValid = stats.checksValid;
            sample.windowAttempted = window_attempted;
            sample.windowValid = window_valid;
            sample.suppressed = tracker_->suppressedFeatures().size();
            sample.cumPlans = stats.planFingerprints.size();
            SQLPP_TRACE_EVENT(CurveSample, "", sample.windowAttempted,
                              sample.windowValid);
            stats.curve.push_back(sample);
            window_attempted = 0;
            window_valid = 0;
        }
    }
    collect_counters(*connection);
    progress::noteTotals(stats.planFingerprints.size(),
                         stats.resourceErrors,
                         tracker_->suppressedFeatures().size());
    if (guide_ != nullptr)
        progress::noteBanditLeader(guide_->leader());
    return stats;
}

bool
CampaignRunner::reproduces(const DialectProfile &profile,
                           const BugCase &bug, OracleResult *replayed,
                           StatementCache *cache)
{
    // Replay under the execution mode the bug was found with. Names this
    // build does not know (e.g. the retired "batch" pipeline) leave the
    // default Optimized mode in place.
    ConnectionOptions options;
    if (!bug.execMode.empty())
        (void)parseExecMode(bug.execMode, options.execMode);
    Connection connection(profile, options, cache);
    for (const std::string &statement : bug.setup)
        (void)connection.executeAdapted(statement);
    auto oracle = makeOracle(bug.oracle);
    if (oracle == nullptr)
        return false;
    auto base = parseStatement(bug.baseText);
    auto predicate = parseExpression(bug.predicateText);
    if (!base.isOk() || !predicate.isOk()) {
        if (replayed != nullptr)
            replayed->details = base.isOk()
                                    ? predicate.status().toString()
                                    : base.status().toString();
        return false;
    }
    if (base.value()->kind() != StmtKind::Select)
        return false;
    OracleResult result = oracle->check(
        connection, static_cast<const SelectStmt &>(*base.value()),
        *predicate.value());
    bool is_bug = result.outcome == OracleOutcome::Bug;
    if (replayed != nullptr)
        *replayed = std::move(result);
    return is_bug;
}

std::optional<FaultId>
CampaignRunner::attributeFault(const DialectProfile &profile,
                               const BugCase &bug)
{
    // The parser takes no profile: one parse serves every ablation.
    StatementCache cache;
    if (!reproduces(profile, bug, nullptr, &cache))
        return std::nullopt;
    for (FaultId fault : profile.faults.ids()) {
        DialectProfile ablated = profile;
        ablated.faults.disable(fault);
        if (!reproduces(ablated, bug, nullptr, &cache))
            return fault;
    }
    return std::nullopt;
}

size_t
CampaignRunner::countUniqueBugs(const DialectProfile &profile,
                                const std::vector<BugCase> &bugs)
{
    std::set<FaultId> attributed;
    size_t unattributed = 0;
    for (const BugCase &bug : bugs) {
        auto fault = attributeFault(profile, bug);
        if (fault.has_value())
            attributed.insert(*fault);
        else
            ++unattributed;
    }
    // Unattributed cases are conservatively counted as one extra
    // underlying bug (they did flag a real inconsistency).
    return attributed.size() + (unattributed > 0 ? 1 : 0);
}

} // namespace sqlpp

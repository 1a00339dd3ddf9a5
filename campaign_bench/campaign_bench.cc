/**
 * @file
 * Campaign benchmark program. run.py builds it and calls it; it can also
 * be run by hand:
 *
 *   campaign_bench run   --workload W --seed S --checks N --round R
 *                        [--attribute 0|1]
 *   campaign_bench setup --workload W --seed S
 *   campaign_bench trace --workload W --seed S --checks N --rounds R
 *
 * A round is one CampaignScheduler::run of N checks (per dialect on
 * fleet); round r is seeded from (W, S, r).
 *
 * run    round R, untraced. Reports per-shard rows, drain and CPU time,
 *        the process's peak RSS, merged counts and a digest of the
 *        merged CampaignStats; with --attribute 1 it then counts
 *        distinct bugs outside the timed window.
 * setup  the round-0 schedule with checks = 0: only process start-up
 *        and every shard's database build.
 * trace  rounds 0..R-1, each: one untraced run, then a single-threaded
 *        mirror of every shard that times calls into each layer's
 *        public functions (spans kept in memory, aggregated at exit).
 *        The per-layer table is printed only when every mirrored
 *        shard's stats equal the untraced run's stats for that shard.
 *
 * Output: one JSON object as the last line of stdout (trace mode prints
 * its span table before it).
 */
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/baseline.h"
#include "core/dossier.h"
#include "core/scheduler.h"
#include "engine/typecheck.h"
#include "parser/lexer.h"
#include "parser/parser.h"
#include "sqlir/printer.h"
#include "util/coverage.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/strutil.h"
#include "util/trace.h"

using namespace sqlpp;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

// ---------------------------------------------------------------------
// Workloads. A round is a closed loop from one process; the seed only
// picks the campaign seeds, never the shape of the run.
// ---------------------------------------------------------------------

const char *const kWorkloads[] = {"fleet", "single", "triage"};

bool
knownWorkload(const std::string &name)
{
    for (const char *known : kWorkloads) {
        if (name == known)
            return true;
    }
    return false;
}

uint64_t
roundSeed(const std::string &workload, uint64_t seed, size_t round)
{
    return fnv1a(format("%s|%" PRIu64 "|%zu", workload.c_str(), seed,
                        round)) >>
           1;
}

SchedulerConfig
workloadConfig(const std::string &workload, uint64_t seed, size_t checks)
{
    SchedulerConfig config;
    config.campaign.seed = seed;
    config.campaign.checks = checks;
    config.campaign.oracles = {"TLP", "NOREC", "PQS", "EET"};
    // bug_hunt's feedback interval: the headline fleet run.
    config.campaign.feedback.updateInterval = 200;
    if (workload == "fleet") {
        config.mode = ScheduleMode::ShardDialects;
        config.workers = 4;
        // Bounded statements, as a long fleet campaign would run them.
        // Without a bound a few join-heavy database states take most of
        // the fleet's time, and throughput then depends on the seed far
        // more than on the program.
        config.campaign.budget.maxSteps = 20000;
        config.campaign.budget.maxIntermediateRows = 2000;
    } else if (workload == "single") {
        config.mode = ScheduleMode::SliceChecks;
        config.campaign.dialect = "sqlite-like";
        config.workers = 1;
        config.slices = 1;
    } else {
        config.mode = ScheduleMode::SliceChecks;
        config.campaign.dialect = "sqlite-like";
        config.campaign.oracles.push_back("ISO");
        config.campaign.guidance.mode = GuidanceMode::Ucb;
        config.campaign.reduce = true;
        config.workers = 2;
        config.slices = 4;
    }
    return config;
}

/**
 * Digest of the merged stats a correct program must reproduce for a
 * fixed seed: checks attempted and valid, bugs by oracle, prioritized
 * case ids, and a hash of the plan-fingerprint set.
 */
std::string
statsDigest(const CampaignStats &stats)
{
    std::string text = format("%" PRIu64 "|%" PRIu64 "|",
                              stats.checksAttempted, stats.checksValid);
    for (const auto &[oracle, count] : stats.bugsByOracle)
        text += format("%s=%" PRIu64 ",", oracle.c_str(), count);
    text += "|";
    for (const BugCase &bug : stats.prioritizedBugs)
        text += bugCaseId(bug) + ",";
    uint64_t plans = fnv1a("plans");
    for (uint64_t fingerprint : stats.planFingerprints)
        plans = fnv1a(format("%016" PRIx64, fingerprint), plans);
    text += format("|%016" PRIx64, plans);
    return format("%016" PRIx64, fnv1a(text));
}

// ---------------------------------------------------------------------
// Minimal JSON object writer (flat values and nested objects).
// ---------------------------------------------------------------------

class JsonObject
{
  public:
    JsonObject &
    num(const std::string &key, double value)
    {
        return raw(key, format("%.17g", value));
    }

    JsonObject &
    str(const std::string &key, const std::string &value)
    {
        return raw(key, "\"" + value + "\"");
    }

    JsonObject &
    obj(const std::string &key, const JsonObject &value)
    {
        return raw(key, value.text());
    }

    JsonObject &
    raw(const std::string &key, const std::string &value)
    {
        body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + value;
        return *this;
    }

    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

JsonObject
buildRecord()
{
    JsonObject env;
    env.str("build_type", SQLPP_BUILD_TYPE);
    env.str("compiler", SQLPP_COMPILER);
#ifdef SQLPP_NO_METRICS
    env.str("SQLPP_METRICS", "OFF");
#else
    env.str("SQLPP_METRICS", "ON");
#endif
#ifdef SQLPP_NO_TRACE
    env.str("SQLPP_TRACE", "OFF");
#else
    env.str("SQLPP_TRACE", "ON");
#endif
#ifdef SQLPP_NO_STATUS
    env.str("SQLPP_STATUS", "OFF");
#else
    env.str("SQLPP_STATUS", "ON");
#endif
#ifdef SQLPP_NO_BATCH
    env.str("SQLPP_BATCH", "OFF");
#else
    env.str("SQLPP_BATCH", "ON");
#endif
    return env;
}

/** A fresh, clean run: counters and flight-recorder lanes zeroed. */
ScheduleReport
runSchedule(const SchedulerConfig &config)
{
    MetricsRegistry::instance().reset();
    TraceRecorder::instance().reset();
    CampaignScheduler scheduler(config);
    return scheduler.run();
}

// ---------------------------------------------------------------------
// run / setup
// ---------------------------------------------------------------------

int
runRound(const std::string &workload, uint64_t seed, size_t checks,
         size_t round, bool attribute)
{
    SchedulerConfig config =
        workloadConfig(workload, roundSeed(workload, seed, round), checks);
    double cpu_before = cpuSeconds();
    ScheduleReport report = runSchedule(config);
    double cpu = cpuSeconds() - cpu_before;
    double rss = peakRssMib();
    const CampaignStats &stats = report.merged;

    JsonObject shards;
    uint64_t by_oracle = 0;
    for (const auto &[oracle, count] : stats.bugsByOracle)
        by_oracle += count;
    uint64_t shard_checks = 0;
    for (const ShardOutcome &shard : report.shards) {
        std::string label = config.mode == ScheduleMode::ShardDialects
                                ? shard.dialect
                                : format("slice%zu", shard.shardIndex);
        shards.obj(label,
                   JsonObject()
                       .num("seconds", shard.seconds)
                       .num("checks", shard.stats.checksAttempted)
                       .num("budget_cut", shard.stats.resourceErrors));
        shard_checks += shard.stats.checksAttempted;
    }
    // Invariants any correct run keeps, whatever the seed. A round that
    // breaks one, or loses a shard, counts all its checks as failed.
    bool sound =
        stats.checksValid <= stats.checksAttempted &&
        by_oracle == stats.bugsDetected &&
        stats.prioritizedBugs.size() <= stats.bugsDetected &&
        shard_checks == stats.checksAttempted &&
        stats.shardsAbandoned == 0 &&
        report.shards.size() == CampaignScheduler(config).plan().size();

    // Ground-truth attribution replays every prioritized case once per
    // fault, so it runs outside the timed window, and only when asked.
    size_t bugs = 0;
    if (attribute) {
        std::map<std::string, std::vector<BugCase>> by_dialect;
        for (const BugCase &bug : stats.prioritizedBugs)
            by_dialect[bug.dialect].push_back(bug);
        for (const auto &[dialect, group] : by_dialect)
            bugs += CampaignRunner::countUniqueBugs(*findDialect(dialect),
                                                    group);
    }

    JsonObject out;
    out.str("mode", "run")
        .num("checks_attempted", stats.checksAttempted)
        .num("checks_valid", stats.checksValid)
        .num("checks_failed", sound ? 0 : stats.checksAttempted)
        .num("drain_s", report.queueDrainSeconds)
        .num("cpu_s", cpu)
        .num("peak_rss_mib", rss)
        .num("plans_unique", stats.planFingerprints.size())
        .num("bugs_distinct", bugs)
        .str("digest", statsDigest(stats))
        .obj("shards", shards)
        .obj("build", buildRecord());
    std::printf("%s\n", out.text().c_str());
    return 0;
}

int
runSetup(const std::string &workload, uint64_t seed)
{
    SchedulerConfig config =
        workloadConfig(workload, roundSeed(workload, seed, 0), 0);
    ScheduleReport report = runSchedule(config);
    const CampaignStats &stats = report.merged;
    JsonObject out;
    out.str("mode", "setup")
        .str("digest",
             format("%" PRIu64 "|%" PRIu64 "|%s", stats.setupGenerated,
                    stats.setupSucceeded, statsDigest(stats).c_str()))
        .num("drain_s", report.queueDrainSeconds);
    std::printf("%s\n", out.text().c_str());
    return 0;
}

// ---------------------------------------------------------------------
// trace: spans recorded around public calls into each layer
// ---------------------------------------------------------------------

/** In-memory span log; aggregated when the benchmark ends. */
class SpanLog
{
  public:
    struct Span
    {
        uint32_t name = 0;
        int32_t parent = -1;
        int64_t start = 0;
        int64_t end = 0;
    };

    uint32_t
    id(const std::string &name)
    {
        auto [it, fresh] = ids_.emplace(name, names_.size());
        if (fresh)
            names_.push_back(name);
        return it->second;
    }

    void
    open(uint32_t name)
    {
        int32_t parent = stack_.empty() ? -1 : stack_.back();
        stack_.push_back(static_cast<int32_t>(spans_.size()));
        spans_.push_back(Span{name, parent, now(), 0});
    }

    /** Close the innermost span; returns its duration in ns. */
    int64_t
    close()
    {
        Span &span = spans_[stack_.back()];
        stack_.pop_back();
        span.end = now();
        return span.end - span.start;
    }

    const std::vector<Span> &spans() const { return spans_; }
    const std::vector<std::string> &names() const { return names_; }

  private:
    static int64_t
    now()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now().time_since_epoch())
            .count();
    }

    std::map<std::string, uint32_t> ids_;
    std::vector<std::string> names_;
    std::vector<Span> spans_;
    std::vector<int32_t> stack_;
};

/** RAII span; close() ends it early and returns its duration. */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, uint32_t name) : log_(log) { log_.open(name); }
    ~SpanScope()
    {
        if (open_)
            log_.close();
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int64_t
    close()
    {
        open_ = false;
        return log_.close();
    }

  private:
    SpanLog &log_;
    bool open_ = true;
};

/** Per-name aggregate of the span log. */
struct SpanStats
{
    uint64_t count = 0;
    int64_t total = 0;
    int64_t self = 0;
    std::vector<int64_t> durations;
};

std::map<std::string, SpanStats>
aggregate(const SpanLog &log)
{
    const auto &spans = log.spans();
    std::vector<int64_t> child(spans.size(), 0);
    for (size_t index = spans.size(); index-- > 0;) {
        const SpanLog::Span &span = spans[index];
        if (span.parent >= 0)
            child[span.parent] += span.end - span.start;
    }
    std::map<std::string, SpanStats> out;
    for (size_t index = 0; index < spans.size(); ++index) {
        const SpanLog::Span &span = spans[index];
        SpanStats &stats = out[log.names()[span.name]];
        int64_t duration = span.end - span.start;
        ++stats.count;
        stats.total += duration;
        stats.self += duration - child[index];
        stats.durations.push_back(duration);
    }
    return out;
}

/** Named counters recorded at the same boundaries as the spans. */
using Counters = std::map<std::string, double>;

std::string
lower(std::string text)
{
    for (char &c : text)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return text;
}

/**
 * Mirror of CampaignRunner::run for one shard config, calling the same
 * public functions in the same order, with spans around each layer.
 * Supports the options the workloads use (adaptive mode, optional
 * guidance and reduction); anything else is refused.
 */
class ShardMirror
{
  public:
    ShardMirror(const CampaignConfig &config, SpanLog &log,
                Counters &counters)
        : config_(config), log_(log), counters_(counters)
    {
        shard_ = log.id("campaign.shard");
        setup_ = log.id("campaign.setup");
        setup_stmt_ = log.id("generator.setup_stmt");
        shape_ = log.id("generator.shape");
        check_ = log.id("campaign.check");
        write_ = log.id("write.stmt");
        feedback_ = log.id("feedback.record");
        consider_ = log.id("prioritizer.consider");
        reward_ = log.id("guidance.reward");
        reduce_ = log.id("reducer.bug");
        replay_ = log.id("reducer.replay");
        replay_oracle_ = log.id("reducer.oracle");
        lexer_ = log.id("lexer.stmt");
        parser_ = log.id("parser.stmt");
        printer_ = log.id("printer.stmt");
        validate_ = log.id("validate.stmt");
        typecheck_ = log.id("typecheck.stmt");
        executor_ = log.id("executor.select");
        connection_ = log.id("connection.stmt");
        instrument_ = log.id("instrument.replay");
    }

    static bool
    supported(const CampaignConfig &config)
    {
        return config.mode == GeneratorMode::Adaptive &&
               config.rebuildEvery == 0 && config.curveInterval == 0 &&
               config.deadlineSeconds == 0.0 && !config.disableFaults;
    }

    CampaignStats
    run()
    {
        SpanScope shard_span(log_, shard_);
        CampaignStats stats;
        const DialectProfile &profile = *findDialect(config_.dialect);
        FeatureRegistry registry;
        FeedbackTracker tracker(config_.feedback);
        FeedbackGate gate(tracker);
        std::unique_ptr<GuidedSelector> guide;
        if (config_.guidance.mode != GuidanceMode::Off) {
            GuidanceConfig guidance = config_.guidance;
            if (guidance.salt == 0)
                guidance.salt = fnv1a(format(
                    "guidance|%llu", (unsigned long long)config_.seed));
            guide = std::make_unique<GuidedSelector>(guidance, tracker,
                                                     registry);
        }
        SchemaModel model;
        std::vector<std::unique_ptr<Oracle>> oracles;
        for (const std::string &name : config_.oracles) {
            if (auto oracle = makeOracle(name))
                oracles.push_back(std::move(oracle));
        }
        if (oracles.empty())
            oracles.push_back(makeOracle("TLP"));
        BugPrioritizer prioritizer;

        options_.budget = config_.budget;
        options_.refreshRetry = config_.refreshRetry;
        options_.execMode = config_.execMode;
        Connection connection(profile, options_);
        Connection replay_session(profile, options_,
                                  connection.sharedDatabase());
        std::vector<std::string> setup_log;
        {
            SpanScope setup_span(log_, setup_);
            GeneratorConfig generator_config = config_.generator;
            generator_config.seed = config_.seed * 0x9e3779b97f4a7c15ULL +
                                    stats.setupGenerated + 1;
            AdaptiveGenerator generator(generator_config, registry, gate,
                                        model);
            for (size_t i = 0; i < config_.setupStatements; ++i) {
                log_.open(setup_stmt_);
                GeneratedStatement stmt = generator.generateSetupStatement();
                log_.close();
                log_.open(write_);
                bool success = connection.executeAdapted(stmt.text).isOk();
                log_.close();
                log_.open(feedback_);
                tracker.record(stmt.features, success, false);
                log_.close();
                generator.noteExecution(stmt, success);
                ++stats.setupGenerated;
                if (success) {
                    ++stats.setupSucceeded;
                    setup_log.push_back(stmt.text);
                }
            }
        }

        GeneratorConfig generator_config = config_.generator;
        generator_config.seed = config_.seed;
        AdaptiveGenerator generator(generator_config, registry, gate,
                                    model);
        std::optional<CoverageCapture> capture;
        if (guide != nullptr) {
            generator.setGuidance(guide.get());
            capture.emplace();
        }

        for (size_t check = 0; check < config_.checks; ++check) {
            log_.open(shape_);
            auto shape = generator.generateQueryShape();
            log_.close();
            count("generator.shapes");
            if (!shape.has_value()) {
                count("generator.shapes_none");
                continue;
            }
            ++stats.checksAttempted;
            uint64_t resources_before =
                guide != nullptr ? connection.resourceErrors() : 0;
            uint64_t statements_before = connection.statementsIssued();
            // (oracle tag, statements it issued), replayed after the check.
            std::vector<std::pair<std::string, std::vector<std::string>>>
                issued;
            bool all_ran = true;
            SpanScope check_span(log_, check_);
            for (auto &oracle : oracles) {
                std::string tag = "oracle." + lower(oracle->name());
                log_.open(log_.id(tag + ".check"));
                OracleResult result = oracle->check(connection, *shape);
                log_.close();
                count(tag + ".checks");
                count(tag + ".stmts", result.queries.size());
                if (result.outcome == OracleOutcome::Inapplicable) {
                    count(tag + ".inapplicable");
                    ++stats.checksInapplicable;
                } else if (result.outcome == OracleOutcome::Skipped) {
                    count(tag + ".skipped");
                    all_ran = false;
                }
                if (result.outcome != OracleOutcome::Bug) {
                    issued.emplace_back(tag, std::move(result.queries));
                    continue;
                }
                ++stats.bugsDetected;
                ++stats.bugsByOracle[oracle->name()];
                FeatureSet bug_features = shape->features;
                bug_features.insert(registry.intern(
                    features::oracle(oracle->name()),
                    FeatureKind::Property));
                log_.open(consider_);
                bool fresh = prioritizer.considerNew(bug_features);
                log_.close();
                count("prioritizer.considered");
                if (!fresh) {
                    issued.emplace_back(tag, std::move(result.queries));
                    continue;
                }
                count("prioritizer.kept");
                BugCase bug;
                bug.dialect = profile.name;
                bug.oracle = oracle->name();
                bug.execMode = execModeName(config_.execMode);
                bug.setup = setup_log;
                bug.baseText = printSelect(*shape->base);
                bug.predicateText = printExpr(*shape->predicate);
                for (FeatureId id : bug_features)
                    bug.featureNames.push_back(registry.name(id));
                bug.details = result.details;
                issued.emplace_back(tag, result.queries);
                bug.queries = std::move(result.queries);
                if (config_.reduce)
                    reduce(profile, bug);
                stats.prioritizedBugs.push_back(std::move(bug));
            }
            if (all_ran)
                ++stats.checksValid;
            log_.open(feedback_);
            tracker.record(shape->features, all_ran, true);
            log_.close();
            uint64_t novel_plans = 0;
            for (uint64_t fingerprint : connection.takeNewPlans()) {
                if (stats.planFingerprints.insert(fingerprint).second)
                    ++novel_plans;
            }
            if (guide != nullptr) {
                uint64_t novel_probes =
                    capture.has_value() ? capture->takeNewProbes() : 0;
                bool truncated =
                    connection.resourceErrors() > resources_before;
                uint64_t novelty =
                    truncated ? 0 : novel_plans + novel_probes;
                count("guidance.arms", shape->arms.size());
                count("guidance.rewards");
                if (novelty > 0)
                    count("guidance.novel");
                log_.open(reward_);
                guide->reward(shape->arms, novelty);
                log_.close();
            }
            count("connection.check_stmts",
                  connection.statementsIssued() - statements_before);
            check_span.close();
            instrument(profile, replay_session, issued);
        }
        stats.resourceErrors += connection.resourceErrors();
        stats.refreshRetries += connection.refreshRetries();
        count("feedback.suppressed", tracker.suppressedFeatures().size());
        return stats;
    }

  private:
    void
    count(const std::string &name, double delta = 1.0)
    {
        counters_[name] += delta;
    }

    /** Mirror of CampaignRunner::reproduces, timing each setup write. */
    bool
    reproduces(const DialectProfile &profile, const BugCase &bug,
               OracleResult *replayed)
    {
        ConnectionOptions options;
        if (!bug.execMode.empty())
            (void)parseExecMode(bug.execMode, options.execMode);
        Connection connection(profile, options);
        for (const std::string &statement : bug.setup) {
            log_.open(write_);
            (void)connection.executeAdapted(statement);
            log_.close();
            count("write.replay_stmts");
        }
        auto oracle = makeOracle(bug.oracle);
        if (oracle == nullptr)
            return false;
        auto base = parseStatement(bug.baseText);
        auto predicate = parseExpression(bug.predicateText);
        if (!base.isOk() || !predicate.isOk())
            return false;
        if (base.value()->kind() != StmtKind::Select)
            return false;
        log_.open(replay_oracle_);
        OracleResult result = oracle->check(
            connection, static_cast<const SelectStmt &>(*base.value()),
            *predicate.value());
        log_.close();
        bool is_bug = result.outcome == OracleOutcome::Bug;
        if (replayed != nullptr)
            *replayed = std::move(result);
        return is_bug;
    }

    void
    reduce(const DialectProfile &profile, BugCase &bug)
    {
        SpanScope reduce_span(log_, reduce_);
        ReduceStats reduced =
            reduceBugCase(bug, [&](const BugCase &candidate) {
                SpanScope replay_span(log_, replay_);
                return reproduces(profile, candidate, nullptr);
            });
        OracleResult replay;
        if (reproduces(profile, bug, &replay))
            bug.queries = std::move(replay.queries);
        count("reducer.bugs");
        count("reducer.stats_replays", reduced.replays);
        count("reducer.setup_before", reduced.setupBefore);
        count("reducer.setup_after", reduced.setupAfter);
    }

    /**
     * Replay every statement the check's oracles issued, on a second
     * session of the same database, through each layer in turn and then
     * through Connection::execute as a whole. Runs outside every
     * campaign span and under a throwaway coverage capture, so guided
     * novelty never sees it. ISO runs on private engines and is timed
     * at Oracle::check granularity only.
     */
    void
    instrument(const DialectProfile &profile, Connection &session,
               const std::vector<std::pair<std::string,
                                           std::vector<std::string>>>
                   &issued)
    {
        CoverageCapture quiet;
        SpanScope instrument_span(log_, instrument_);
        const Database &db = session.database();
        for (const auto &[tag, queries] : issued) {
            if (tag == "oracle.iso")
                continue;
            for (const std::string &sql : queries)
                replayStatement(profile, session, db, tag, sql);
        }
    }

    void
    replayStatement(const DialectProfile &profile, Connection &session,
                    const Database &db, const std::string &tag,
                    const std::string &sql)
    {
        log_.open(lexer_);
        auto tokens = tokenize(sql);
        log_.close();
        count("lexer.stmts");
        if (tokens.isOk())
            count("lexer.tokens", tokens.value().size());

        log_.open(parser_);
        auto parsed = parseStatement(sql);
        int64_t parse_ns = log_.close();
        count("parser.stmts");
        if (!parsed.isOk()) {
            count("parser.errors");
            return;
        }
        const Stmt &stmt = *parsed.value();
        // Only reads are replayed: a write would change the database
        // the campaign goes on to use.
        if (stmt.kind() != StmtKind::Select)
            return;

        log_.open(printer_);
        std::string printed = printStmt(stmt);
        log_.close();
        count("printer.stmts");
        count("printer.bytes", printed.size());

        int64_t pipeline_ns = parse_ns;
        log_.open(validate_);
        Status valid = profile.validate(stmt);
        pipeline_ns += log_.close();
        count("validate.stmts");
        bool ok = valid.isOk();
        if (!ok)
            count("validate.rejects");
        if (ok && db.config().behavior.staticTyping) {
            log_.open(typecheck_);
            Status typed = typeCheckStatement(stmt, db.catalog());
            pipeline_ns += log_.close();
            count("typecheck.stmts");
            if (!typed.isOk()) {
                count("typecheck.rejects");
                ok = false;
            }
        }
        if (ok) {
            BudgetMeter meter(db.config().budget);
            Executor executor(db.catalog(), db.config().behavior,
                              db.config().faults, options_.execMode,
                              &meter);
            log_.open(executor_);
            auto rows =
                executor.runSelect(static_cast<const SelectStmt &>(stmt));
            pipeline_ns += log_.close();
            count("executor.selects");
            count("executor.steps", meter.steps());
            count("executor.irows", meter.intermediateRows());
            if (rows.isOk())
                count("executor.rows", rows.value().rows().size());
            else if (rows.status().code() == ErrorCode::BudgetExhausted)
                count("executor.budget_cuts");
            else
                count("executor.errors");
        }

        log_.open(connection_);
        (void)session.execute(sql);
        int64_t connection_ns = log_.close();
        count("connection.stmts");
        count("connection.overhead_ns", connection_ns - pipeline_ns);
        count(tag + ".connection_ns", connection_ns);
    }

    CampaignConfig config_;
    SpanLog &log_;
    Counters &counters_;
    ConnectionOptions options_;
    uint32_t shard_, setup_, setup_stmt_, shape_, check_, write_,
        feedback_, consider_, reward_, reduce_, replay_, replay_oracle_,
        lexer_, parser_, printer_, validate_, typecheck_, executor_,
        connection_, instrument_;
};

double
percentile(std::vector<int64_t> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    rank = std::clamp<size_t>(rank, 1, values.size());
    return static_cast<double>(values[rank - 1]);
}

int
runTrace(const std::string &workload, uint64_t seed, size_t checks,
         size_t rounds)
{
    // Untraced-run figures, summed over rounds.
    double attempted = 0.0;
    double valid = 0.0;
    double statements = 0.0;
    double dropped = 0.0;
    double drain = 0.0;
    double worker_seconds = 0.0;
    double busy = 0.0;
    double untraced_shard_seconds = 0.0;
    double shard_max_sum = 0.0;
    double imbalance_sum = 0.0;
    size_t shard_count = 0;
    double traced_seconds = 0.0;
    SpanLog log;
    Counters counters;
    for (size_t round = 0; round < rounds; ++round) {
        SchedulerConfig config = workloadConfig(
            workload, roundSeed(workload, seed, round), checks);
        ScheduleReport untraced = runSchedule(config);
        attempted += static_cast<double>(untraced.merged.checksAttempted);
        valid += static_cast<double>(untraced.merged.checksValid);
        statements += static_cast<double>(
            MetricsRegistry::instance().counterTotal(
                "connection.statements"));
        dropped += static_cast<double>(traceDroppedTotal());
        drain += untraced.queueDrainSeconds;
        worker_seconds += static_cast<double>(untraced.workers.size()) *
                          untraced.queueDrainSeconds;
        for (const WorkerReport &worker : untraced.workers)
            busy += worker.busySeconds;
        double round_seconds = 0.0;
        double round_max = 0.0;
        for (const ShardOutcome &shard : untraced.shards) {
            round_seconds += shard.seconds;
            round_max = std::max(round_max, shard.seconds);
        }
        untraced_shard_seconds += round_seconds;
        shard_max_sum += round_max;
        if (round_seconds > 0.0)
            imbalance_sum += round_max * static_cast<double>(
                                             untraced.shards.size()) /
                             round_seconds;
        shard_count = untraced.shards.size();

        std::vector<CampaignConfig> shards =
            CampaignScheduler(config).plan();
        if (shards.size() != untraced.shards.size()) {
            std::fprintf(stderr, "trace: untraced run lost shards\n");
            return 1;
        }
        auto traced_start = Clock::now();
        for (size_t index = 0; index < shards.size(); ++index) {
            if (!ShardMirror::supported(shards[index])) {
                std::fprintf(stderr, "trace: shard %zu uses options the "
                                     "mirror does not support\n",
                             index);
                return 1;
            }
            ShardMirror mirror(shards[index], log, counters);
            CampaignStats mirrored = mirror.run();
            const CampaignStats &expected = untraced.shards[index].stats;
            if (!(mirrored == expected)) {
                std::fprintf(
                    stderr,
                    "trace: round %zu shard %zu (%s): mirrored stats %s "
                    "differ from the untraced run's %s; no per-layer "
                    "table\n",
                    round, index, shards[index].dialect.c_str(),
                    statsDigest(mirrored).c_str(),
                    statsDigest(expected).c_str());
                return 1;
            }
        }
        traced_seconds += secondsSince(traced_start);
    }

    std::map<std::string, SpanStats> spans = aggregate(log);
    auto span = [&](const std::string &name) -> const SpanStats & {
        static const SpanStats empty;
        auto it = spans.find(name);
        return it == spans.end() ? empty : it->second;
    };
    auto counter = [&](const std::string &name) {
        auto it = counters.find(name);
        return it == counters.end() ? 0.0 : it->second;
    };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    auto mean_us = [&](const std::string &name) {
        const SpanStats &s = span(name);
        return ratio(static_cast<double>(s.total) / 1e3,
                     static_cast<double>(s.count));
    };
    auto pct = [&](double num, double den) {
        return 100.0 * ratio(num, den);
    };

    // Unattributed time: the shard roots' self time, over the campaign's
    // own time (the roots minus the instrumentation replays under them).
    const SpanStats &roots = span("campaign.shard");
    double campaign_ns = static_cast<double>(
        roots.total - span("instrument.replay").total);

    JsonObject m;
    double shapes = counter("generator.shapes");
    m.num("generator.shape_us", mean_us("generator.shape"))
        .num("generator.setup_stmt_us", mean_us("generator.setup_stmt"))
        .num("generator.shape_none_pct",
             pct(counter("generator.shapes_none"), shapes));
    m.num("guidance.arms_per_shape",
          ratio(counter("guidance.arms"), counter("guidance.rewards")))
        .num("guidance.reward_us", mean_us("guidance.reward"))
        .num("guidance.novel_pct",
             pct(counter("guidance.novel"), counter("guidance.rewards")));
    m.num("printer.stmt_us", mean_us("printer.stmt"))
        .num("printer.bytes_per_stmt",
             ratio(counter("printer.bytes"), counter("printer.stmts")));
    m.num("lexer.stmt_us", mean_us("lexer.stmt"))
        .num("lexer.tokens_per_stmt",
             ratio(counter("lexer.tokens"), counter("lexer.stmts")))
        .num("parser.stmt_us", mean_us("parser.stmt"))
        .num("parser.error_pct",
             pct(counter("parser.errors"), counter("parser.stmts")));
    m.num("validate.stmt_us", mean_us("validate.stmt"))
        .num("validate.reject_pct",
             pct(counter("validate.rejects"), counter("validate.stmts")))
        .num("connection.stmt_us", mean_us("connection.stmt"))
        .num("connection.overhead_us",
             ratio(counter("connection.overhead_ns") / 1e3,
                   counter("connection.stmts")))
        .num("connection.stmts_per_check",
             ratio(counter("connection.check_stmts"), attempted))
        .num("connection.stmts_per_s", ratio(statements, drain));
    m.num("typecheck.stmt_us", mean_us("typecheck.stmt"))
        .num("typecheck.reject_pct",
             pct(counter("typecheck.rejects"), counter("typecheck.stmts")));
    const SpanStats &exec = span("executor.select");
    double selects = counter("executor.selects");
    m.num("executor.select_us", mean_us("executor.select"))
        .num("executor.select_p99_us", percentile(exec.durations, 0.99) / 1e3)
        .num("executor.select_samples", selects)
        .num("executor.steps_per_select",
             ratio(counter("executor.steps"), selects))
        .num("executor.irows_per_select",
             ratio(counter("executor.irows"), selects))
        .num("executor.rows_per_select",
             ratio(counter("executor.rows"), selects))
        .num("executor.us_per_kstep",
             ratio(static_cast<double>(exec.total) / 1e3,
                   counter("executor.steps") / 1e3))
        .num("executor.budget_cut_pct",
             pct(counter("executor.budget_cuts"), selects))
        .num("executor.error_pct", pct(counter("executor.errors"), selects));
    m.num("write.stmt_us", mean_us("write.stmt"))
        .num("write.stmts_per_replay",
             ratio(counter("write.replay_stmts"),
                   static_cast<double>(span("reducer.replay").count +
                                       counter("reducer.bugs"))));
    for (const char *name : {"tlp", "norec", "pqs", "eet", "iso"}) {
        std::string tag = std::string("oracle.") + name;
        const SpanStats &check = span(tag + ".check");
        double runs = counter(tag + ".checks");
        double self_ns = static_cast<double>(check.total) -
                         counter(tag + ".connection_ns");
        m.num(tag + ".check_us", mean_us(tag + ".check"))
            .num(tag + ".self_us", ratio(self_ns / 1e3, runs))
            .num(tag + ".stmts_per_check",
                 ratio(counter(tag + ".stmts"), runs))
            .num(tag + ".skip_pct", pct(counter(tag + ".skipped"), runs))
            .num(tag + ".inapplicable_pct",
                 pct(counter(tag + ".inapplicable"), runs));
    }
    m.num("feedback.record_us", mean_us("feedback.record"))
        .num("feedback.suppressed", counter("feedback.suppressed"));
    m.num("prioritizer.consider_us", mean_us("prioritizer.consider"))
        .num("prioritizer.kept_pct",
             pct(counter("prioritizer.kept"),
                 counter("prioritizer.considered")));
    const SpanStats &reduced = span("reducer.bug");
    m.num("reducer.bug_ms",
          ratio(static_cast<double>(reduced.total) / 1e6,
                static_cast<double>(reduced.count)))
        .num("reducer.replays_per_bug",
             ratio(counter("reducer.stats_replays"),
                   counter("reducer.bugs")))
        .num("reducer.replay_us", mean_us("reducer.replay"))
        .num("reducer.self_pct",
             pct(static_cast<double>(reduced.self),
                 static_cast<double>(reduced.total)))
        .num("reducer.setup_kept_pct",
             pct(counter("reducer.setup_after"),
                 counter("reducer.setup_before")));
    double round_count = static_cast<double>(rounds);
    m.num("scheduler.shard_max_s", shard_max_sum / round_count)
        .num("scheduler.imbalance", imbalance_sum / round_count)
        .num("scheduler.worker_busy_pct", pct(busy, worker_seconds));
    const SpanStats &checks_span = span("campaign.check");
    m.num("campaign.check_p50_us",
          percentile(checks_span.durations, 0.50) / 1e3)
        .num("campaign.check_p99_us",
             percentile(checks_span.durations, 0.99) / 1e3)
        .num("campaign.check_samples",
             static_cast<double>(checks_span.count))
        .num("campaign.other_pct",
             pct(static_cast<double>(roots.self), campaign_ns));
    m.num("telemetry.trace_dropped_per_kcheck",
          ratio(dropped, attempted / 1e3))
        .num("trace.overhead_pct",
             100.0 * (ratio(traced_seconds, untraced_shard_seconds) - 1.0))
        .num("trace.spans", static_cast<double>(log.spans().size()));

    std::printf("%-36s %14s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const auto &[name, s] : spans)
        std::printf("%-36s %14" PRIu64 " %12.2f %12.2f\n", name.c_str(),
                    s.count, static_cast<double>(s.total) / 1e6,
                    static_cast<double>(s.self) / 1e6);
    JsonObject out;
    out.str("mode", "trace")
        .raw("mirror_identical", "true")
        .num("rounds", round_count)
        .num("shards", static_cast<double>(shard_count))
        .num("checks_attempted", attempted)
        .num("checks_valid", valid)
        .num("untraced_drain_s", drain)
        .num("traced_s", traced_seconds)
        .obj("metrics", m)
        .obj("build", buildRecord());
    std::printf("%s\n", out.text().c_str());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: campaign_bench run|setup|trace --workload "
                 "fleet|single|triage --seed N [--checks N] "
                 "[--round N] [--attribute 0|1] [--rounds N]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string mode = argv[1];
    std::string workload;
    uint64_t seed = 0;
    size_t checks = 0;
    size_t round = 0;
    size_t rounds = 1;
    bool attribute = false;
    for (int arg = 2; arg + 1 < argc; arg += 2) {
        std::string flag = argv[arg];
        const char *value = argv[arg + 1];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed")
            seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--checks")
            checks = std::strtoull(value, nullptr, 10);
        else if (flag == "--round")
            round = std::strtoull(value, nullptr, 10);
        else if (flag == "--rounds")
            rounds = std::strtoull(value, nullptr, 10);
        else if (flag == "--attribute")
            attribute = std::strcmp(value, "1") == 0;
        else
            return usage();
    }
    if (argc % 2 != 0 || !knownWorkload(workload) || rounds == 0)
        return usage();
    setLogLevel(LogLevel::Error);
    if (mode == "run" && checks > 0)
        return runRound(workload, seed, checks, round, attribute);
    if (mode == "setup")
        return runSetup(workload, seed);
    if (mode == "trace" && checks > 0)
        return runTrace(workload, seed, checks, rounds);
    return usage();
}

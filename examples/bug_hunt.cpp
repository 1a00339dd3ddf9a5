/**
 * @file
 * Bug hunt: the Table 2 workflow — run the platform against every
 * campaign dialect, prioritize, attribute, and summarize.
 *
 * The 17 dialects are sharded across a worker pool (the paper's
 * concurrent-fleet setup); results are merged deterministically, so
 * the table below is identical for any --workers value.
 *
 *   ./bug_hunt [checks-per-dialect] [flags]
 *
 * kUsage below lists every flag; --help prints it and exits 0. Any
 * other argument that is not a known flag with its value, or a count
 * of decimal digits, prints the usage and exits 2.
 *
 * --oracles picks the logic-bug oracles run per query shape
 * (comma-separated, case-insensitive; default tlp,norec). Adding pqs
 * enables the pivot-containment oracle, which catches row-loss faults
 * the multiset-equality oracles cannot; adding eet enables the
 * equivalent-expression oracle, whose rewrite wrappers reach planner
 * and evaluator paths no WHERE-based check steers onto; adding iso
 * enables the isolation oracle, which runs interleaved multi-session
 * transaction schedules against a serial-order witness and is the
 * only oracle that can see isolation faults (single-session no-ops).
 *
 * --guidance turns on search-guided generation: generator choice
 * points become deterministic bandit arms (ucb or thompson) rewarded
 * by new plan fingerprints and coverage probes, so the statement
 * budget chases novelty instead of revisiting known plans. Guided
 * campaigns remain bit-identical for any --workers value and across
 * --resume.
 *
 * --checkpoint rewrites FILE atomically after every finished shard;
 * rerunning with --resume skips finished shards and merges to stats
 * bit-identical to an uninterrupted run. The budget flags bound every
 * statement's engine work; budget-truncated statements count as
 * resource errors, never as bugs.
 *
 * --metrics-out writes the campaign metrics as the stable
 * sqlpp.metrics.v1 JSON document (byte-identical across runs for a
 * fixed seed with --workers 1); --metrics-timings additionally
 * includes wall-clock timer values, which vary run to run.
 * --metrics-summary prints the human-readable table on stdout.
 *
 * --trace-out writes the campaign flight recorder as sqlpp.trace.v1
 * JSONL (logical ticks only — byte-identical across runs for a fixed
 * seed with --workers 1; scripts/trace_to_chrome.py renders it in
 * Perfetto). --dossier-dir writes one forensic dossier directory per
 * prioritized bug (repro.sql + dossier/feedback/metrics/events; the
 * dossier set is identical for any --workers value and across
 * --resume). --curve-interval N samples the validity learning curve
 * every N checks. --log-level quiet|error|warn|info|debug sets the
 * verbosity of campaign/scheduler progress lines on stderr.
 *
 * --status-port N serves live campaign introspection on
 * 127.0.0.1:N (0 = kernel-assigned; the bound port is printed):
 * GET /status returns the sqlpp.status.v1 JSON snapshot (per-shard
 * progress, stall diagnosis), GET /metrics the Prometheus text
 * exposition, GET /trace?since=T the flight-recorder events with
 * tick > T as NDJSON. Polling is read-only: merged stats,
 * checkpoints, and dossiers are bit-identical with or without it.
 * --progress SEC prints a one-line progress report (checks/s,
 * validity, bugs, ETA, stalled shards) every SEC seconds, rendered
 * from the same snapshot /status serves.
 */
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>

#include "core/progress.h"
#include "core/scheduler.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/status_server.h"
#include "util/strutil.h"
#include "util/trace.h"

using namespace sqlpp;

namespace {

const char kUsage[] =
    "usage: bug_hunt [checks-per-dialect] [--workers N] [--help]\n"
    "                [--oracles tlp,norec,pqs,eet,iso]\n"
    "                [--guidance off|ucb|thompson]\n"
    "                [--checkpoint FILE] [--resume]\n"
    "                [--shard-deadline SEC]\n"
    "                [--max-steps N] [--max-rows N]\n"
    "                [--max-intermediate-rows N]\n"
    "                [--metrics-out FILE] [--metrics-summary]\n"
    "                [--metrics-timings]\n"
    "                [--trace-out FILE] [--dossier-dir DIR]\n"
    "                [--curve-interval N] [--log-level LEVEL]\n"
    "                [--status-port N] [--progress SEC]\n";

/** True if @p text is a non-empty run of decimal digits. */
bool
isCount(const char *text)
{
    if (*text == '\0')
        return false;
    for (; *text != '\0'; ++text) {
        if (*text < '0' || *text > '9')
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    size_t checks = 600;
    size_t workers = 1;
    std::string oracles_flag = "tlp,norec";
    std::string checkpoint_path;
    bool resume = false;
    double shard_deadline = 0.0;
    std::string metrics_out;
    bool metrics_summary = false;
    bool metrics_timings = false;
    std::string trace_out;
    std::string dossier_dir;
    size_t curve_interval = 0;
    StepBudget budget;
    GuidanceMode guidance = GuidanceMode::Off;
    long status_port = -1;
    double progress_interval = 0.0;
    for (int arg = 1; arg < argc; ++arg) {
        auto flagValue = [&](const char *flag, const char **value) {
            if (std::strcmp(argv[arg], flag) != 0 || arg + 1 >= argc)
                return false;
            *value = argv[++arg];
            return true;
        };
        const char *value = nullptr;
        if (flagValue("--workers", &value)) {
            workers = std::strtoul(value, nullptr, 10);
        } else if (flagValue("--oracles", &value)) {
            oracles_flag = value;
        } else if (flagValue("--guidance", &value)) {
            if (!parseGuidanceMode(value, guidance)) {
                std::fprintf(stderr,
                             "unknown guidance mode '%s' (known: off, "
                             "ucb, thompson)\n",
                             value);
                return 1;
            }
        } else if (flagValue("--checkpoint", &value)) {
            checkpoint_path = value;
        } else if (std::strcmp(argv[arg], "--resume") == 0) {
            resume = true;
        } else if (flagValue("--shard-deadline", &value)) {
            shard_deadline = std::strtod(value, nullptr);
        } else if (flagValue("--metrics-out", &value)) {
            metrics_out = value;
        } else if (std::strcmp(argv[arg], "--metrics-summary") == 0) {
            metrics_summary = true;
        } else if (std::strcmp(argv[arg], "--metrics-timings") == 0) {
            metrics_timings = true;
        } else if (flagValue("--trace-out", &value)) {
            trace_out = value;
        } else if (flagValue("--dossier-dir", &value)) {
            dossier_dir = value;
        } else if (flagValue("--curve-interval", &value)) {
            curve_interval = std::strtoul(value, nullptr, 10);
        } else if (flagValue("--status-port", &value)) {
            status_port = std::strtol(value, nullptr, 10);
            if (status_port < 0 || status_port > 65535) {
                std::fprintf(stderr,
                             "--status-port must be 0..65535\n");
                return 1;
            }
        } else if (flagValue("--progress", &value)) {
            progress_interval = std::strtod(value, nullptr);
        } else if (flagValue("--log-level", &value)) {
            auto level = logLevelFromName(value);
            if (!level) {
                std::fprintf(stderr,
                             "unknown log level '%s' (known: quiet, "
                             "error, warn, info, debug)\n",
                             value);
                return 1;
            }
            setLogLevel(*level);
        } else if (flagValue("--max-steps", &value)) {
            budget.maxSteps = std::strtoull(value, nullptr, 10);
        } else if (flagValue("--max-rows", &value)) {
            budget.maxRows = std::strtoull(value, nullptr, 10);
        } else if (flagValue("--max-intermediate-rows", &value)) {
            budget.maxIntermediateRows =
                std::strtoull(value, nullptr, 10);
        } else if (std::strcmp(argv[arg], "--help") == 0) {
            std::fputs(kUsage, stdout);
            return 0;
        } else if (isCount(argv[arg])) {
            checks = std::strtoul(argv[arg], nullptr, 10);
        } else {
            // An unknown flag, a flag missing its value, or a count
            // that is not a number.
            std::fprintf(stderr, "bug_hunt: bad argument '%s'\n%s",
                         argv[arg], kUsage);
            return 2;
        }
    }
    if (resume && checkpoint_path.empty()) {
        std::fprintf(stderr,
                     "--resume requires --checkpoint <file>\n");
        return 1;
    }
    std::vector<std::string> oracles;
    for (const std::string &name : split(oracles_flag, ',')) {
        if (name.empty())
            continue;
        if (makeOracle(name) == nullptr) {
            std::fprintf(stderr,
                         "unknown oracle '%s' (known: tlp, norec, "
                         "pqs, eet, iso)\n",
                         name.c_str());
            return 1;
        }
        oracles.push_back(toUpper(name));
    }
    if (oracles.empty()) {
        std::fprintf(stderr, "--oracles needs at least one oracle\n");
        return 1;
    }

    SchedulerConfig config;
    config.mode = ScheduleMode::ShardDialects;
    config.workers = workers;
    config.checkpointPath = checkpoint_path;
    config.resume = resume;
    config.shardDeadlineSeconds = shard_deadline;
    config.campaign.seed = 1234;
    config.campaign.checks = checks;
    config.campaign.oracles = oracles;
    config.campaign.feedback.updateInterval = 200;
    config.campaign.budget = budget;
    config.campaign.curveInterval = curve_interval;
    config.campaign.guidance.mode = guidance;
    config.dossierDir = dossier_dir;

    std::printf("== SQLancer++ bug-finding campaign across %zu "
                "dialects (%zu worker%s) ==\n\n",
                campaignDialects().size(), workers,
                workers == 1 ? "" : "s");
    if (guidance != GuidanceMode::Off)
        std::printf("guided generation: %s (novelty-rewarded bandit "
                    "over generator choice points)\n\n",
                    guidanceModeName(guidance));
    std::printf("%-16s %10s %9s %12s %8s %7s\n", "dialect", "detected",
                "priorit.", "unique-bugs", "validity", "plans");

    MetricsRegistry::instance().reset();
    TraceRecorder::instance().reset();

    // Live introspection side door. Handlers only render read-only
    // snapshots (progress board atomics, metric/trace lane reads), so
    // serving them cannot perturb the campaign.
    StatusServer status_server;
    if (status_port >= 0) {
        status_server.handle("/status", [](const HttpRequest &) {
            HttpResponse response;
            response.body = renderStatusJson(
                ProgressBoard::instance().snapshot());
            return response;
        });
        status_server.handle("/metrics", [](const HttpRequest &) {
            HttpResponse response;
            response.contentType = "text/plain; version=0.0.4";
            response.body = exportMetricsPrometheus();
            return response;
        });
        status_server.handle("/trace", [](const HttpRequest &request) {
            HttpResponse response;
            response.contentType = "application/x-ndjson";
            response.body = exportTraceDeltaJsonl(
                request.queryU64("since", 0));
            return response;
        });
        Status started =
            status_server.start(static_cast<uint16_t>(status_port));
        if (started.isOk()) {
            std::printf("status: serving on http://127.0.0.1:%u "
                        "(/status /metrics /trace?since=N)\n",
                        status_server.port());
            std::fflush(stdout);
        } else {
            std::fprintf(stderr, "status: disabled (%s)\n",
                         started.toString().c_str());
        }
    }

    // Periodic progress line, rendered from the same snapshot /status
    // serves. The printer thread only reads the board.
    std::mutex progress_mutex;
    std::condition_variable progress_cv;
    bool progress_done = false;
    std::thread progress_thread;
    if (progress_interval > 0.0) {
        progress_thread = std::thread([&] {
            std::unique_lock<std::mutex> lock(progress_mutex);
            for (;;) {
                progress_cv.wait_for(
                    lock,
                    std::chrono::duration<double>(progress_interval),
                    [&] { return progress_done; });
                if (progress_done)
                    return;
                std::printf("%s\n",
                            renderProgressLine(
                                ProgressBoard::instance().snapshot())
                                .c_str());
                std::fflush(stdout);
            }
        });
    }

    CampaignScheduler scheduler(config);
    ScheduleReport report = scheduler.run();

    if (progress_thread.joinable()) {
        {
            std::lock_guard<std::mutex> lock(progress_mutex);
            progress_done = true;
        }
        progress_cv.notify_all();
        progress_thread.join();
        // One final line so short campaigns always report completion.
        std::printf("%s\n",
                    renderProgressLine(
                        ProgressBoard::instance().snapshot())
                        .c_str());
    }

    size_t total_prioritized = 0;
    size_t total_unique = 0;
    for (const ShardOutcome &shard : report.shards) {
        const DialectProfile *profile = findDialect(shard.dialect);
        size_t unique = CampaignRunner::countUniqueBugs(
            *profile, shard.stats.prioritizedBugs);
        total_prioritized += shard.stats.prioritizedBugs.size();
        total_unique += unique;
        std::printf("%-16s %10llu %9zu %12zu %7.1f%% %7zu%s\n",
                    shard.dialect.c_str(),
                    (unsigned long long)shard.stats.bugsDetected,
                    shard.stats.prioritizedBugs.size(), unique,
                    100.0 * shard.stats.validityRate(),
                    shard.stats.planFingerprints.size(),
                    shard.fromCheckpoint ? "  (resumed)" : "");
    }
    std::printf("\ntotal prioritized reports: %zu, distinct underlying "
                "bugs: %zu\n",
                total_prioritized, total_unique);
    if (!checkpoint_path.empty())
        std::printf("checkpoint: %s (%zu shard%s restored from a "
                    "previous run)\n",
                    checkpoint_path.c_str(),
                    report.shardsFromCheckpoint,
                    report.shardsFromCheckpoint == 1 ? "" : "s");
    if (report.merged.resourceErrors > 0 ||
        report.merged.shardsAbandoned > 0)
        std::printf("budget/watchdog: %llu statements cut short by the "
                    "execution budget, %llu shard%s abandoned at the "
                    "deadline\n",
                    (unsigned long long)report.merged.resourceErrors,
                    (unsigned long long)report.merged.shardsAbandoned,
                    report.merged.shardsAbandoned == 1 ? "" : "s");
    std::printf("queue drained in %.2f s (%.0f checks/s end to end)\n",
                report.queueDrainSeconds, report.checksPerSecond());
    std::printf("(ground truth: every campaign dialect ships a fixed "
                "fault set; see src/engine/faults.h)\n");
    if (!metrics_out.empty()) {
        std::ofstream out(metrics_out, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "cannot write metrics to %s\n",
                         metrics_out.c_str());
            return 1;
        }
        out << exportMetricsJson(metrics_timings);
        std::printf("metrics: %s\n", metrics_out.c_str());
    }
    if (metrics_summary)
        std::fputs(metricsSummaryTable().c_str(), stdout);
    if (!trace_out.empty()) {
        std::ofstream out(trace_out, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "cannot write trace to %s\n",
                         trace_out.c_str());
            return 1;
        }
        out << exportTraceJsonl();
        std::printf("trace: %s\n", trace_out.c_str());
        uint64_t dropped = traceDroppedTotal();
        if (dropped > 0)
            std::printf("warning: %llu trace events dropped (ring "
                        "overwrite; the export holds only each lane's "
                        "newest %zu events)\n",
                        (unsigned long long)dropped,
                        TraceRecorder::kRingCapacity);
    }
    if (!dossier_dir.empty())
        std::printf("dossiers: %zu written under %s\n",
                    report.dossiersWritten, dossier_dir.c_str());
    status_server.stop();
    return 0;
}

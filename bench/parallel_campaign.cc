/**
 * @file
 * Parallel campaign scheduler bench: worker-count sweep.
 *
 * Sweeps 1/2/4/8 workers over a *fixed* shard layout (8 slices of one
 * dialect's check budget, then the 17-dialect fleet) and reports
 * per-worker throughput, queue-drain time, and the merged totals. The
 * shard layout never changes across the sweep, so every row must merge
 * to bit-identical campaign stats — the sweep verifies that invariant
 * and prints the speedup relative to the single-worker run.
 *
 * Wall-clock speedup tracks the machine: on an N-core box the drain
 * time shrinks until workers exceed cores (the bench prints the
 * hardware concurrency next to the sweep for context).
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/scheduler.h"
#include "util/metrics.h"

#include <fstream>

using namespace sqlpp;

namespace {

bool
sameMerged(const CampaignStats &a, const CampaignStats &b)
{
    return a.checksAttempted == b.checksAttempted &&
           a.checksValid == b.checksValid &&
           a.bugsDetected == b.bugsDetected &&
           a.setupGenerated == b.setupGenerated &&
           a.prioritizedBugs.size() == b.prioritizedBugs.size() &&
           a.planFingerprints == b.planFingerprints;
}

void
printRow(size_t workers, const ScheduleReport &report, double base_drain)
{
    double speedup = report.queueDrainSeconds > 0.0
                         ? base_drain / report.queueDrainSeconds
                         : 0.0;
    std::printf("%7zu %9.3f %10.0f %8.2fx %11llu %8llu %6llu %6zu %7zu\n",
                workers, report.queueDrainSeconds,
                report.checksPerSecond(), speedup,
                (unsigned long long)report.merged.checksAttempted,
                (unsigned long long)report.merged.checksValid,
                (unsigned long long)report.merged.bugsDetected,
                report.merged.prioritizedBugs.size(),
                report.merged.planFingerprints.size());
}

void
printWorkerDetail(const ScheduleReport &report)
{
    for (const WorkerReport &worker : report.workers) {
        std::printf("    worker %zu: %zu shard(s), %llu checks, "
                    "%.3f s busy, %.0f checks/s\n",
                    worker.workerIndex, worker.shardsRun,
                    (unsigned long long)worker.checksAttempted,
                    worker.busySeconds, worker.checksPerSecond());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    size_t checks = 4000;
    std::string metrics_out;
    for (int arg = 1; arg < argc; ++arg) {
        if (std::strcmp(argv[arg], "--metrics-out") == 0 &&
            arg + 1 < argc) {
            metrics_out = argv[++arg];
        } else {
            checks = std::strtoul(argv[arg], nullptr, 10);
        }
    }

    MetricsRegistry::instance().reset();

    bench::banner(
        "parallel campaign scheduler (worker sweep)",
        "merged results are a function of seed+shards only; workers "
        "change wall-clock, nothing else");
    std::printf("hardware concurrency: %u\n",
                std::thread::hardware_concurrency());

    const std::vector<size_t> sweep = {1, 2, 4, 8};

    bench::section("slice mode: sqlite-like, 8 slices");
    std::printf("%7s %9s %10s %9s %11s %8s %6s %6s %7s\n", "workers",
                "drain(s)", "checks/s", "speedup", "attempted", "valid",
                "bugs", "prio", "plans");
    ScheduleReport baseline;
    bool slice_deterministic = true;
    for (size_t workers : sweep) {
        SchedulerConfig config;
        config.mode = ScheduleMode::SliceChecks;
        config.workers = workers;
        config.slices = 8; // fixed layout across the whole sweep
        config.campaign.dialect = "sqlite-like";
        config.campaign.seed = 42;
        config.campaign.checks = checks;
        config.campaign.setupStatements = 60;
        config.campaign.oracles = {"TLP", "NOREC"};
        config.campaign.feedback.updateInterval = 200;
        ScheduleReport report = CampaignScheduler(config).run();
        if (workers == sweep.front())
            baseline = report;
        else
            slice_deterministic &=
                sameMerged(baseline.merged, report.merged);
        printRow(workers, report, baseline.queueDrainSeconds);
        if (workers == 4)
            printWorkerDetail(report);
    }
    std::printf("merged stats identical across worker counts: %s\n",
                slice_deterministic ? "OK" : "MISMATCH");

    bench::section("dialect mode: 17-dialect fleet");
    std::printf("%7s %9s %10s %9s %11s %8s %6s %6s %7s\n", "workers",
                "drain(s)", "checks/s", "speedup", "attempted", "valid",
                "bugs", "prio", "plans");
    ScheduleReport fleet_baseline;
    bool fleet_deterministic = true;
    for (size_t workers : sweep) {
        SchedulerConfig config;
        config.mode = ScheduleMode::ShardDialects;
        config.workers = workers;
        config.campaign.seed = 42;
        config.campaign.checks = checks / 8;
        config.campaign.setupStatements = 60;
        config.campaign.feedback.updateInterval = 200;
        ScheduleReport report = CampaignScheduler(config).run();
        if (workers == sweep.front())
            fleet_baseline = report;
        else
            fleet_deterministic &=
                sameMerged(fleet_baseline.merged, report.merged);
        printRow(workers, report, fleet_baseline.queueDrainSeconds);
    }
    std::printf("merged stats identical across worker counts: %s\n",
                fleet_deterministic ? "OK" : "MISMATCH");

    bench::section("checkpoint round-trip: none vs write vs resume");
    auto checkpointed_config = [&](size_t workers) {
        SchedulerConfig config;
        config.mode = ScheduleMode::SliceChecks;
        config.workers = workers;
        config.slices = 8;
        config.campaign.dialect = "sqlite-like";
        config.campaign.seed = 42;
        config.campaign.checks = checks;
        config.campaign.setupStatements = 60;
        config.campaign.oracles = {"TLP", "NOREC"};
        config.campaign.feedback.updateInterval = 200;
        return config;
    };
    std::string checkpoint_path =
        (std::filesystem::temp_directory_path() /
         "sqlpp_bench_checkpoint.kv")
            .string();
    std::filesystem::remove(checkpoint_path);

    ScheduleReport plain = CampaignScheduler(checkpointed_config(2)).run();

    SchedulerConfig writing = checkpointed_config(2);
    writing.checkpointPath = checkpoint_path;
    ScheduleReport written = CampaignScheduler(writing).run();
    double write_overhead =
        plain.queueDrainSeconds > 0.0
            ? written.queueDrainSeconds / plain.queueDrainSeconds
            : 0.0;

    SchedulerConfig resuming = writing;
    resuming.resume = true;
    ScheduleReport resumed = CampaignScheduler(resuming).run();

    bool checkpoint_deterministic =
        plain.merged == written.merged && plain.merged == resumed.merged;
    std::printf("no checkpoint: %.3f s; checkpointed: %.3f s (%.2fx); "
                "full resume: %.3f s (%zu/%zu shards restored)\n",
                plain.queueDrainSeconds, written.queueDrainSeconds,
                write_overhead, resumed.queueDrainSeconds,
                resumed.shardsFromCheckpoint, resumed.shards.size());
    std::printf("merged stats identical across the three runs: %s\n",
                checkpoint_deterministic ? "OK" : "MISMATCH");
    std::filesystem::remove(checkpoint_path);

    bench::section("execution budget: throughput under tight budgets");
    std::printf("%22s %9s %11s %8s %6s %10s\n", "budget", "drain(s)",
                "attempted", "valid", "bugs", "res-errors");
    for (uint64_t max_steps : {0ULL, 100000ULL, 10000ULL, 1000ULL}) {
        SchedulerConfig config = checkpointed_config(2);
        config.campaign.budget.maxSteps = max_steps;
        ScheduleReport report = CampaignScheduler(config).run();
        char label[32];
        std::snprintf(label, sizeof label, "max-steps=%llu",
                      (unsigned long long)max_steps);
        std::printf("%22s %9.3f %11llu %8llu %6llu %10llu\n", label,
                    report.queueDrainSeconds,
                    (unsigned long long)report.merged.checksAttempted,
                    (unsigned long long)report.merged.checksValid,
                    (unsigned long long)report.merged.bugsDetected,
                    (unsigned long long)report.merged.resourceErrors);
    }

    bench::section("campaign metrics (whole sweep)");
    std::fputs(metricsSummaryTable().c_str(), stdout);
    if (!metrics_out.empty()) {
        std::ofstream out(metrics_out, std::ios::binary);
        out << exportMetricsJson();
        std::printf("metrics: %s\n", metrics_out.c_str());
    }

    return (slice_deterministic && fleet_deterministic &&
            checkpoint_deterministic)
               ? 0
               : 1;
}

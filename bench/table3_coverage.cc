/**
 * @file
 * Table 3 reproduction: engine coverage under different generators.
 *
 * The paper measures gcov line/branch coverage of SQLite, PostgreSQL,
 * and DuckDB; here the proxy is the engine's probe coverage (fraction
 * of declared engine code paths hit — see util/coverage.h). Each cell
 * prints the probes hit over the probes declared. The paper's shape:
 * the dialect-specific baseline covers more than the adaptive
 * generator (it knows every dialect feature a priori), feedback changes
 * coverage only slightly, and the gap is smaller on "less mature"
 * dialects. EXPERIMENTS.md records how far this proxy follows it.
 */
#include "bench_util.h"
#include "core/campaign.h"
#include "util/coverage.h"

using namespace sqlpp;

namespace {

/**
 * Distinct probes one campaign hits. The campaigns are unguided, so no
 * capture installed inside runner.run() hides hits from this one.
 */
size_t
runCoverage(const std::string &dialect, GeneratorMode mode,
            size_t checks)
{
    CoverageCapture capture;
    CampaignConfig config;
    config.dialect = dialect;
    config.seed = 77;
    config.mode = mode;
    config.checks = checks;
    config.oracles = {"TLP", "NOREC"};
    CampaignRunner runner(config);
    (void)runner.run();
    return capture.probesSeen();
}

} // namespace

int
main(int argc, char **argv)
{
    size_t checks = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 800;

    bench::banner("Table 3: engine coverage (probe-coverage proxy)",
                  "baseline > adaptive on every system; small deltas "
                  "from feedback; smaller gap on less mature targets");

    const char *dialects[] = {"sqlite-like", "postgres-like",
                              "duckdb-like"};
    struct ModeSpec
    {
        const char *label;
        GeneratorMode mode;
    };
    const ModeSpec modes[] = {
        {"SQLancer++ w/ feedback", GeneratorMode::Adaptive},
        {"SQLancer++ w/o feedback", GeneratorMode::AdaptiveNoFeedback},
        {"baseline (SQLancer)", GeneratorMode::Baseline},
    };

    std::printf("%-26s", "approach");
    for (const char *dialect : dialects)
        std::printf(" %14s", dialect);
    std::printf("\n");

    double fb[3] = {0, 0, 0}, base[3] = {0, 0, 0};
    for (const ModeSpec &mode : modes) {
        std::printf("%-26s", mode.label);
        for (int d = 0; d < 3; ++d) {
            size_t seen = runCoverage(dialects[d], mode.mode, checks);
            size_t declared = CoverageRegistry::instance().declared();
            double ratio = 100.0 * static_cast<double>(seen) /
                           static_cast<double>(declared);
            if (mode.mode == GeneratorMode::Adaptive)
                fb[d] = ratio;
            if (mode.mode == GeneratorMode::Baseline)
                base[d] = ratio;
            std::printf(" %3zu/%zu %5.1f%%", seen, declared, ratio);
        }
        std::printf("\n");
    }

    bench::section("shape checks");
    for (int d = 0; d < 3; ++d) {
        std::printf("%-14s baseline-vs-adaptive gap: %+5.1f points "
                    "(paper: baseline ahead)\n",
                    dialects[d], base[d] - fb[d]);
    }
    std::printf("\npaper reference (line coverage, 24h): sqlite 30.5%% "
                "vs 47.9%%; postgres 26.3%% vs 31.8%%;\nduckdb 31.6%% vs "
                "33.4%% — coverage does not track logic-bug yield.\n");
    return 0;
}

/**
 * @file
 * Golden-file test for the platform's two replay loops.
 *
 * The reducer and the ISO oracle both rerun the same SQL texts many
 * times, on fresh databases, and report what the replays saw. Their
 * results are part of what a campaign reports, so
 * tests/golden/replay_outcomes.txt pins them in two parts:
 *
 *  - a reduce-on sqlite-like campaign with all five oracles at two
 *    fixed seeds: for each prioritized bug, its bugCaseId, reduced
 *    setup, predicate, queries and details, plus the ReduceStats that
 *    reduceBugCase returns when it drives CampaignRunner::reproduces
 *    over the same case from a reduce-off run;
 *  - for a fixed list of query shapes, the outcome, details and
 *    queries of IsolationOracle::check on the fault-free profile and on
 *    each isolation-fault profile.
 *
 * To change either loop's behaviour deliberately, regenerate the file:
 *
 *   SQLPP_UPDATE_GOLDEN=1 ./core_replay_golden_test
 */
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/campaign.h"
#include "core/dossier.h"
#include "core/oracle.h"
#include "core/reducer.h"
#include "engine/faults.h"
#include "parser/parser.h"
#include "util/strutil.h"

namespace sqlpp {
namespace {

std::string
goldenPath()
{
    return std::string(SQLPP_GOLDEN_DIR) + "/replay_outcomes.txt";
}

const uint64_t kCampaignSeeds[] = {3, 11};

CampaignConfig
campaignConfig(uint64_t seed, bool reduce)
{
    CampaignConfig config;
    config.dialect = "sqlite-like";
    config.seed = seed;
    config.checks = 120;
    config.setupStatements = 30;
    config.oracles = {"TLP", "NOREC", "PQS", "EET", "ISO"};
    config.reduce = reduce;
    return config;
}

const char *
outcomeName(OracleOutcome outcome)
{
    switch (outcome) {
      case OracleOutcome::Passed:
        return "passed";
      case OracleOutcome::Bug:
        return "bug";
      case OracleOutcome::Skipped:
        return "skipped";
      case OracleOutcome::Inapplicable:
        return "inapplicable";
    }
    return "?";
}

void
renderLines(std::ostringstream &out, const char *label,
            const std::vector<std::string> &lines)
{
    out << "  " << label << " " << lines.size() << "\n";
    for (const std::string &line : lines)
        out << "    " << line << "\n";
}

/**
 * The reducer part. Each reduce-off bug is reduced again here over
 * CampaignRunner::reproduces, and must come out equal to the bug the
 * reduce-on campaign reported in the same position.
 */
std::string
renderReducedCampaigns()
{
    const DialectProfile &profile = *findDialect("sqlite-like");
    std::ostringstream out;
    for (uint64_t seed : kCampaignSeeds) {
        CampaignStats reduced = CampaignRunner(campaignConfig(seed, true))
                                    .run();
        CampaignStats raw = CampaignRunner(campaignConfig(seed, false))
                                .run();
        EXPECT_EQ(reduced.prioritizedBugs.size(),
                  raw.prioritizedBugs.size());
        out << "campaign seed " << seed << ": "
            << reduced.checksAttempted << " checks, "
            << reduced.bugsDetected << " bugs, "
            << reduced.prioritizedBugs.size() << " prioritized\n";
        for (size_t i = 0; i < reduced.prioritizedBugs.size(); ++i) {
            const BugCase &bug = reduced.prioritizedBugs[i];
            out << "bug " << bugCaseId(bug) << " " << bug.oracle << "\n";
            renderLines(out, "setup", bug.setup);
            out << "  base " << bug.baseText << "\n"
                << "  predicate " << bug.predicateText << "\n"
                << "  details " << bug.details << "\n";
            renderLines(out, "queries", bug.queries);
            if (i >= raw.prioritizedBugs.size())
                continue;
            BugCase again = raw.prioritizedBugs[i];
            ReduceStats stats =
                reduceBugCase(again, [&](const BugCase &candidate) {
                    return CampaignRunner::reproduces(profile, candidate);
                });
            OracleResult replay;
            if (CampaignRunner::reproduces(profile, again, &replay))
                again.queries = std::move(replay.queries);
            EXPECT_EQ(again, bug) << "seed " << seed << " bug " << i;
            out << format("  reduce setup %zu->%zu predicate nodes "
                          "%zu->%zu replays %zu\n",
                          stats.setupBefore, stats.setupAfter,
                          stats.predicateNodesBefore,
                          stats.predicateNodesAfter, stats.replays);
        }
    }
    return out.str();
}

const char *const kIsoBases[] = {"SELECT * FROM t0",
                                 "SELECT t0.c0 FROM t0"};

const char *const kIsoPredicates[] = {
    "t0.c0 > 1",  "t0.c0 < 5",         "t0.c0 = 3",
    "t0.c0 >= 0", "(t0.c0 IS NULL)",   "NOT (t0.c0 <> 2)",
};

/** The ISO part: every shape on every isolation profile. */
std::string
renderIsoShapes()
{
    std::vector<std::pair<std::string, FaultSet>> profiles = {
        {"fault-free", FaultSet{}}};
    for (const FaultInfo &fault : faultTable()) {
        if (fault.family == FaultFamily::Isolation)
            profiles.emplace_back(fault.name, FaultSet{fault.value});
    }
    std::ostringstream out;
    for (const auto &[label, faults] : profiles) {
        DialectProfile profile = *findDialect("postgres-like");
        profile.name = "iso-golden";
        profile.faults = faults;
        for (const char *base_text : kIsoBases) {
            for (const char *predicate_text : kIsoPredicates) {
                auto base = parseStatement(base_text);
                auto predicate = parseExpression(predicate_text);
                EXPECT_TRUE(base.isOk() && predicate.isOk())
                    << base_text << " WHERE " << predicate_text;
                if (!base.isOk() || !predicate.isOk())
                    continue;
                Connection connection(profile);
                OracleResult result = IsolationOracle().check(
                    connection,
                    static_cast<const SelectStmt &>(*base.value()),
                    *predicate.value());
                out << "iso " << label << " | " << base_text
                    << " | " << predicate_text << " -> "
                    << outcomeName(result.outcome) << "\n"
                    << "  details " << result.details << "\n";
                renderLines(out, "queries", result.queries);
            }
        }
    }
    return out.str();
}

TEST(ReplayGoldenTest, MatchesGolden)
{
    std::string rendered =
        "# reduced campaign bugs and ISO outcomes; regenerate with "
        "SQLPP_UPDATE_GOLDEN=1\n" +
        renderReducedCampaigns() + renderIsoShapes();

    if (std::getenv("SQLPP_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(goldenPath(), std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << goldenPath();
        out << rendered;
        GTEST_SKIP() << "golden file regenerated: " << goldenPath();
    }
    std::ifstream in(goldenPath(), std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << goldenPath()
        << "; run once with SQLPP_UPDATE_GOLDEN=1";
    std::stringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(rendered, expected.str())
        << "replay outcomes changed; if deliberate, regenerate with "
           "SQLPP_UPDATE_GOLDEN=1";
}

} // namespace
} // namespace sqlpp

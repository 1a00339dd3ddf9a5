/**
 * @file
 * Golden-file test for the built-in dialect profiles.
 *
 * The 17 campaign profiles (plus postgres-like) are the experiment's
 * fixed independent variable: Table 2 rows, the ground-truth fault
 * sets, the capability matrices the generator learns. A silent edit to
 * any of them invalidates cross-run comparisons, so the full rendering
 * of every profile is pinned in tests/golden/profiles.txt and diffed
 * here. To change a profile deliberately, regenerate the file:
 *
 *   SQLPP_UPDATE_GOLDEN=1 ./dialect_golden_test
 */
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "dialect/profile.h"

namespace sqlpp {
namespace {

std::string
goldenPath()
{
    return std::string(SQLPP_GOLDEN_DIR) + "/profiles.txt";
}

std::string
renderAllProfiles()
{
    std::string out;
    for (const DialectProfile &profile : allDialectProfiles()) {
        out += describeProfile(profile);
        out += "\n";
    }
    return out;
}

TEST(DialectGoldenTest, ProfileCountIsStable)
{
    // 17 Table 2 campaign systems + postgres-like (Tables 3/4).
    EXPECT_EQ(allDialectProfiles().size(), 18u);
    EXPECT_EQ(campaignDialects().size(), 17u);
}

TEST(DialectGoldenTest, ProfilesMatchGoldenFile)
{
    std::string rendered = renderAllProfiles();

    if (std::getenv("SQLPP_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(goldenPath(), std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << goldenPath();
        out << rendered;
        GTEST_SKIP() << "golden file regenerated: " << goldenPath();
    }

    std::ifstream in(goldenPath(), std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << goldenPath()
                    << "; regenerate with SQLPP_UPDATE_GOLDEN=1";
    std::ostringstream golden;
    golden << in.rdbuf();

    EXPECT_EQ(rendered, golden.str())
        << "dialect profiles diverged from tests/golden/profiles.txt; "
           "if the change is intentional, rerun with "
           "SQLPP_UPDATE_GOLDEN=1";
}

TEST(DialectGoldenTest, EveryProfileRendersItsName)
{
    for (const DialectProfile &profile : allDialectProfiles()) {
        std::string text = describeProfile(profile);
        EXPECT_NE(text.find("== " + profile.name + " =="),
                  std::string::npos);
        // Every campaign profile ships ground-truth faults.
        if (profile.name != "postgres-like") {
            EXPECT_EQ(text.find("faults: \n"), std::string::npos)
                << profile.name << " has an empty fault set";
        }
    }
}

} // namespace
} // namespace sqlpp

/**
 * @file
 * Tests for the leveled logger (util/log.h): every enabled line is
 * written through at once, the level filter, setLogSink(), CLI
 * level-name parsing, and the watchdog's abandonment warning.
 */
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/campaign.h"
#include "util/log.h"

namespace sqlpp {
namespace {

/**
 * Installs a capturing sink and restores stderr + Warn level on exit,
 * so tests never leak state into each other.
 */
class LogTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setLogLevel(LogLevel::Debug);
        setLogSink([this](const std::string &text) {
            captured_ += text;
        });
    }

    void TearDown() override
    {
        setLogSink(nullptr);
        setLogLevel(LogLevel::Warn);
    }

    std::string captured_;
};

TEST_F(LogTest, ErrorWritesThroughImmediately)
{
    logError("boom");
    EXPECT_EQ(captured_, "[ERROR] boom\n");
}

TEST_F(LogTest, EveryEnabledLevelWritesOneLineImmediately)
{
    logMessage(LogLevel::Debug, "first");
    EXPECT_EQ(captured_, "[DEBUG] first\n");
    logMessage(LogLevel::Info, "second");
    logWarn("third");
    EXPECT_EQ(captured_, "[DEBUG] first\n[INFO] second\n[WARN] third\n");
}

TEST_F(LogTest, LevelFiltersLines)
{
    setLogLevel(LogLevel::Warn);
    logMessage(LogLevel::Debug, "hidden");
    logMessage(LogLevel::Info, "hidden too");
    setLogLevel(LogLevel::Silent);
    logError("also hidden");
    EXPECT_TRUE(captured_.empty());
}

TEST_F(LogTest, SwappingTheSinkRedirectsLaterLines)
{
    logWarn("belongs to old sink");
    std::string second;
    setLogSink([&second](const std::string &text) { second += text; });
    logWarn("belongs to new sink");
    EXPECT_EQ(captured_, "[WARN] belongs to old sink\n");
    EXPECT_EQ(second, "[WARN] belongs to new sink\n");
    setLogSink(nullptr);
}

TEST(LogLevelNameTest, ParsesKnownNamesCaseInsensitively)
{
    EXPECT_EQ(logLevelFromName("quiet"), LogLevel::Silent);
    EXPECT_EQ(logLevelFromName("silent"), LogLevel::Silent);
    EXPECT_EQ(logLevelFromName("ERROR"), LogLevel::Error);
    EXPECT_EQ(logLevelFromName("Warn"), LogLevel::Warn);
    EXPECT_EQ(logLevelFromName("warning"), LogLevel::Warn);
    EXPECT_EQ(logLevelFromName("info"), LogLevel::Info);
    EXPECT_EQ(logLevelFromName("DEBUG"), LogLevel::Debug);
    EXPECT_FALSE(logLevelFromName("verbose").has_value());
    EXPECT_FALSE(logLevelFromName("").has_value());
}

/**
 * A shard the watchdog abandons says so: the warning must reach the
 * sink by the time run() returns.
 */
TEST_F(LogTest, WatchdogAbandonmentWarningReachesTheSink)
{
    CampaignConfig config;
    config.dialect = "sqlite-like";
    config.checks = 1u << 20; // would run far past the deadline
    config.setupStatements = 20;
    config.deadlineSeconds = 0.05;
    CampaignRunner runner(config);
    CampaignStats stats = runner.run();
    ASSERT_EQ(stats.shardsAbandoned, 1u);
    EXPECT_NE(captured_.find("abandoning shard"), std::string::npos)
        << "got: " << captured_;
}

} // namespace
} // namespace sqlpp

/**
 * @file
 * Unit tests for the coverage-probe registry and captures.
 */
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "engine/functions.h"
#include "util/coverage.h"

namespace sqlpp {
namespace {

TEST(CoverageTest, HitDeclaresUnknownProbe)
{
    CoverageRegistry reg;
    const size_t first = reg.slot("new_probe");
    EXPECT_EQ(reg.declared(), 1u);
    EXPECT_EQ(reg.slot("new_probe"), first);
    EXPECT_EQ(reg.declared(), 1u);
}

TEST(CoverageTest, ConcurrentHitsLoseNothing)
{
    // Threads register names while each hits into its own capture:
    // registration must not disturb any thread's hits, and no capture
    // sees another thread's.
    CoverageRegistry reg;
    const size_t hot = reg.slot("hot");
    constexpr size_t kThreads = 4;
    constexpr size_t kNamesPerThread = 200;
    std::vector<size_t> seen(kThreads, 0);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg, &seen, hot, t] {
            CoverageCapture capture;
            for (size_t i = 0; i < kNamesPerThread; ++i) {
                CoverageCapture::hit(hot);
                CoverageCapture::hit(reg.slot(
                    "late_" + std::to_string(t) + "_" +
                    std::to_string(i)));
            }
            seen[t] = capture.probesSeen();
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (size_t t = 0; t < kThreads; ++t)
        EXPECT_EQ(seen[t], 1u + kNamesPerThread);
    EXPECT_EQ(reg.declared(), 1u + kThreads * kNamesPerThread);
}

TEST(CoverageTest, PastCapacityHitsGoNowhere)
{
    // Past kMaxProbes names, slot() answers the overflow slot: a hit
    // through it reaches no capture (the ASan lane flags any write past
    // the capture's flags) and declared() stays capped.
    CoverageRegistry reg;
    const size_t capacity = CoverageRegistry::kMaxProbes;
    for (size_t i = 0; i < capacity; ++i)
        (void)reg.slot("probe_" + std::to_string(i));
    const size_t last = reg.slot("probe_" + std::to_string(capacity - 1));
    EXPECT_EQ(last, capacity - 1);
    CoverageCapture capture;
    for (size_t i = 0; i < 3; ++i) {
        const size_t extra = reg.slot("extra_" + std::to_string(i));
        EXPECT_EQ(extra, CoverageRegistry::kOverflowSlot);
        CoverageCapture::hit(extra);
    }
    EXPECT_EQ(capture.probesSeen(), 0u);
    CoverageCapture::hit(last);
    EXPECT_EQ(capture.probesSeen(), 1u);
    EXPECT_EQ(reg.declared(), capacity);
}

TEST(CoverageTest, GlobalInstanceIsSingleton)
{
    EXPECT_EQ(&CoverageRegistry::instance(), &CoverageRegistry::instance());
}

TEST(CoverageTest, EveryProbeSiteIsDeclaredBeforeAnyHit)
{
    // SQLPP_COVER sites register during static initialisation, and the
    // function table registers its eval.fn.* probes when it is built,
    // before any function can run. So a probe no run has hit yet is
    // already declared, and coverage ratios have a fixed denominator.
    (void)FunctionRegistry::instance();
    CoverageRegistry &reg = CoverageRegistry::instance();
    const size_t declared = reg.declared();
    (void)reg.slot("eval.fault.double_neg_null_false");
    (void)reg.slot("planner.fault.true_absorbs_and");
    (void)reg.slot("eval.fn.abs");
    EXPECT_EQ(reg.declared(), declared);
}

/** Distinct probes one unguided table3-configured campaign hits. */
size_t
probesHitByCampaign(const std::string &dialect, GeneratorMode mode)
{
    CoverageCapture capture;
    CampaignConfig config;
    config.dialect = dialect;
    config.seed = 77;
    config.mode = mode;
    config.checks = 200;
    config.oracles = {"TLP", "NOREC"};
    CampaignRunner runner(config);
    (void)runner.run();
    return capture.probesSeen();
}

TEST(CoverageTest, UnguidedCampaignCoverageCountsArePinned)
{
    // bench/table3_coverage's grid at 200 checks. The counts pin what
    // the probes record, whatever mechanism records them.
    const char *dialects[] = {"sqlite-like", "postgres-like",
                              "duckdb-like"};
    const GeneratorMode modes[] = {GeneratorMode::Adaptive,
                                   GeneratorMode::AdaptiveNoFeedback,
                                   GeneratorMode::Baseline};
    std::vector<size_t> counts;
    for (GeneratorMode mode : modes) {
        for (const char *dialect : dialects)
            counts.push_back(probesHitByCampaign(dialect, mode));
    }
    const std::vector<size_t> pinned = {46, 45, 46, 46, 45, 46,
                                        48, 46, 48};
    EXPECT_EQ(counts, pinned);
}

TEST(CoverageCaptureTest, CountsFirstHitsOnlyAndDrains)
{
    CoverageRegistry &reg = CoverageRegistry::instance();
    const size_t a = reg.slot("capture_test_a");
    const size_t b = reg.slot("capture_test_b");

    CoverageCapture capture;
    CoverageCapture::hit(a);
    CoverageCapture::hit(a); // repeat hit: not novel
    EXPECT_EQ(capture.takeNewProbes(), 1u);
    EXPECT_EQ(capture.takeNewProbes(), 0u); // drained

    CoverageCapture::hit(a); // seen over the capture's lifetime
    CoverageCapture::hit(b);
    EXPECT_EQ(capture.takeNewProbes(), 1u);
    EXPECT_EQ(capture.probesSeen(), 2u);
}

TEST(CoverageCaptureTest, CaptureIsThreadLocal)
{
    CoverageRegistry &reg = CoverageRegistry::instance();
    const size_t slot = reg.slot("capture_test_threaded");

    CoverageCapture capture;
    // Hits from another thread (no capture installed there) must not
    // bleed into this thread's capture — that is the whole point: a
    // shard's novelty signal sees only its own worker thread.
    std::thread other([slot] { CoverageCapture::hit(slot); });
    other.join();
    EXPECT_EQ(capture.takeNewProbes(), 0u);

    CoverageCapture::hit(slot);
    EXPECT_EQ(capture.takeNewProbes(), 1u);
}

TEST(CoverageCaptureTest, CapturesStackAndRestore)
{
    CoverageRegistry &reg = CoverageRegistry::instance();
    const size_t slot = reg.slot("capture_test_stacked");

    CoverageCapture outer;
    {
        CoverageCapture inner;
        CoverageCapture::hit(slot);
        EXPECT_EQ(inner.takeNewProbes(), 1u);
        // While inner is installed, hits bypass outer entirely.
        EXPECT_EQ(outer.takeNewProbes(), 0u);
    }
    CoverageCapture::hit(slot); // inner destroyed: outer is active again
    EXPECT_EQ(outer.takeNewProbes(), 1u);
}

} // namespace
} // namespace sqlpp

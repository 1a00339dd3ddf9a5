/**
 * @file
 * Unit tests for the coverage-probe registry.
 */
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/coverage.h"

namespace sqlpp {
namespace {

TEST(CoverageTest, DeclareFixesDenominator)
{
    CoverageRegistry reg;
    reg.declare("a");
    reg.declare("b");
    EXPECT_EQ(reg.declared(), 2u);
    EXPECT_EQ(reg.covered(), 0u);
    EXPECT_DOUBLE_EQ(reg.ratio(), 0.0);
}

TEST(CoverageTest, HitCoversAndCounts)
{
    CoverageRegistry reg;
    reg.declare("a");
    reg.declare("b");
    reg.hit("a");
    reg.hit("a");
    EXPECT_EQ(reg.covered(), 1u);
    EXPECT_EQ(reg.hits("a"), 2u);
    EXPECT_EQ(reg.hits("b"), 0u);
    EXPECT_DOUBLE_EQ(reg.ratio(), 0.5);
}

TEST(CoverageTest, HitDeclaresUnknownProbe)
{
    CoverageRegistry reg;
    reg.hit("new_probe");
    EXPECT_EQ(reg.declared(), 1u);
    EXPECT_EQ(reg.covered(), 1u);
}

TEST(CoverageTest, ResetClearsHitsKeepsDeclarations)
{
    CoverageRegistry reg;
    reg.declare("a");
    reg.hit("a");
    reg.reset();
    EXPECT_EQ(reg.declared(), 1u);
    EXPECT_EQ(reg.covered(), 0u);
    EXPECT_EQ(reg.hits("a"), 0u);
}

TEST(CoverageTest, UncoveredLists)
{
    CoverageRegistry reg;
    reg.declare("a");
    reg.declare("b");
    reg.hit("b");
    auto uncovered = reg.uncovered();
    ASSERT_EQ(uncovered.size(), 1u);
    EXPECT_EQ(uncovered[0], "a");
}

TEST(CoverageTest, EmptyRegistryRatioZero)
{
    CoverageRegistry reg;
    EXPECT_DOUBLE_EQ(reg.ratio(), 0.0);
}

TEST(CoverageTest, ConcurrentHitsLoseNothing)
{
    CoverageRegistry reg;
    const size_t hot = reg.slot("hot");
    constexpr size_t kThreads = 4;
    constexpr size_t kHitsPerThread = 20000;
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg, hot, t] {
            for (size_t i = 0; i < kHitsPerThread; ++i)
                reg.hitSlot(hot);
            // Late registration must not disturb live counters.
            reg.declare("late_" + std::to_string(t));
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(reg.hits("hot"), kThreads * kHitsPerThread);
    EXPECT_EQ(reg.declared(), 1u + kThreads);
}

TEST(CoverageTest, PastCapacityHitsGoNowhere)
{
    // Past kMaxProbes names, slot() answers the overflow slot: hits,
    // covered() and reset() must stay inside the counters (the ASan
    // lane flags any write past them) and declared() stays capped.
    CoverageRegistry reg;
    const size_t capacity = CoverageRegistry::kMaxProbes;
    for (size_t i = 0; i < capacity; ++i)
        reg.declare("probe_" + std::to_string(i));
    const size_t last = reg.slot("probe_" + std::to_string(capacity - 1));
    EXPECT_EQ(last, capacity - 1);
    for (size_t i = 0; i < 3; ++i) {
        const std::string name = "extra_" + std::to_string(i);
        EXPECT_EQ(reg.slot(name), CoverageRegistry::kOverflowSlot);
        reg.hit(name);
        EXPECT_EQ(reg.hits(name), 0u);
    }
    reg.hitSlot(CoverageRegistry::kOverflowSlot);
    reg.hitSlot(last);
    EXPECT_EQ(reg.declared(), capacity);
    EXPECT_EQ(reg.covered(), 1u);
    EXPECT_EQ(reg.uncovered().size(), capacity - 1);
    reg.reset();
    EXPECT_EQ(reg.covered(), 0u);
    EXPECT_EQ(reg.declared(), capacity);
    EXPECT_EQ(reg.hits("probe_0"), 0u);
}

TEST(CoverageTest, GlobalInstanceIsSingleton)
{
    EXPECT_EQ(&CoverageRegistry::instance(), &CoverageRegistry::instance());
}

TEST(CoverageCaptureTest, CountsFirstHitsOnlyAndDrains)
{
    CoverageRegistry &reg = CoverageRegistry::instance();
    const size_t a = reg.slot("capture_test_a");
    const size_t b = reg.slot("capture_test_b");

    CoverageCapture capture;
    reg.hitSlot(a);
    reg.hitSlot(a); // repeat hit: not novel
    EXPECT_EQ(capture.takeNewProbes(), 1u);
    EXPECT_EQ(capture.takeNewProbes(), 0u); // drained

    reg.hitSlot(a); // seen over the capture's lifetime: still not novel
    reg.hitSlot(b);
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
    std::thread other([&reg, slot] { reg.hitSlot(slot); });
    other.join();
    EXPECT_EQ(capture.takeNewProbes(), 0u);

    reg.hitSlot(slot);
    EXPECT_EQ(capture.takeNewProbes(), 1u);
}

TEST(CoverageCaptureTest, CapturesStackAndRestore)
{
    CoverageRegistry &reg = CoverageRegistry::instance();
    const size_t slot = reg.slot("capture_test_stacked");

    CoverageCapture outer;
    {
        CoverageCapture inner;
        reg.hitSlot(slot);
        EXPECT_EQ(inner.takeNewProbes(), 1u);
        // While inner is installed, hits bypass outer entirely.
        EXPECT_EQ(outer.takeNewProbes(), 0u);
    }
    reg.hitSlot(slot); // inner destroyed: outer is active again
    EXPECT_EQ(outer.takeNewProbes(), 1u);
}

} // namespace
} // namespace sqlpp

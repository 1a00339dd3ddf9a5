/**
 * @file
 * CampaignRunner: the SQLancer++ platform loop (paper Fig. 2).
 *
 * One campaign = one dialect + one generator mode + one or more
 * oracles. The runner
 *   1. builds database state with the generator (DDL/DML phase),
 *      feeding execution status back to the schema model and the
 *      validity tracker;
 *   2. generates oracle query shapes and checks them, learning from
 *      validity and recording plan fingerprints;
 *   3. routes every bug-inducing case through the prioritizer and
 *      (optionally) the reducer;
 *   4. can attribute prioritized bugs to ground-truth faults by
 *      replaying them against fault-ablated engines — the measurement
 *      the paper approximates by bisecting CrateDB commits (Table 5).
 */
#ifndef SQLPP_CORE_CAMPAIGN_H
#define SQLPP_CORE_CAMPAIGN_H

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/baseline.h"
#include "core/feature.h"
#include "core/feedback.h"
#include "core/generator.h"
#include "core/guidance.h"
#include "core/oracle.h"
#include "core/prioritizer.h"
#include "core/reducer.h"
#include "dialect/connection.h"

namespace sqlpp {

/** Which generator drives the campaign. */
enum class GeneratorMode
{
    /** Adaptive generator with validity feedback (SQLancer++). */
    Adaptive,
    /** Adaptive generator, feedback disabled (ablation). */
    AdaptiveNoFeedback,
    /** Profile-omniscient baseline ("SQLancer"-style). */
    Baseline,
};

/** Campaign configuration. */
struct CampaignConfig
{
    std::string dialect = "sqlite-like";
    uint64_t seed = 1;
    GeneratorMode mode = GeneratorMode::Adaptive;
    /** Oracles to run per query shape, e.g. {"TLP"} or {"TLP","NOREC"}. */
    std::vector<std::string> oracles = {"TLP"};
    /** Database-state statements to generate before testing. */
    size_t setupStatements = 80;
    /** Oracle checks to run. */
    size_t checks = 1500;
    /** Rebuild the database every N checks (0 = never). */
    size_t rebuildEvery = 0;
    /** Run the reducer over each prioritized bug. */
    bool reduce = false;
    GeneratorConfig generator;
    FeedbackConfig feedback;
    /** Per-statement engine budget for every connection opened. */
    StepBudget budget;
    /** Retry policy for transient REFRESH failures. */
    RefreshRetryPolicy refreshRetry;
    /**
     * Execution pipeline for every connection the campaign opens.
     * Reference exists as the oracle of the engine differential test;
     * campaigns run Optimized.
     */
    ExecMode execMode = ExecMode::Optimized;
    /**
     * Watchdog: abandon the campaign after this many wall-clock
     * seconds (0 = no deadline). An abandoned campaign returns the
     * stats gathered so far and sets CampaignStats::shardsAbandoned.
     */
    double deadlineSeconds = 0.0;
    /** Strip the profile's injected faults (fault-free control runs). */
    bool disableFaults = false;
    /**
     * Learning-curve sampler: append a CurveSample to
     * CampaignStats::curve every N attempted checks (0 = off). The
     * trajectory behind the paper's validity learning curves.
     */
    size_t curveInterval = 0;
    /**
     * Search-guided generation (core/guidance.h): when the mode is not
     * Off, generator choice points become bandit arms rewarded by plan
     * and coverage novelty. Fully deterministic — guided campaigns
     * stay bit-identical across worker counts and resume.
     */
    GuidanceConfig guidance;
};

/**
 * One learning-curve sample: a point on the validity trajectory as the
 * adaptive generator learns a dialect. Logical time only (tick =
 * checksAttempted at sample time), so curves are deterministic for a
 * fixed seed and independent of worker count.
 */
struct CurveSample
{
    /** checksAttempted when the sample was taken. */
    uint64_t tick = 0;
    uint64_t cumAttempted = 0;
    uint64_t cumValid = 0;
    /** Checks attempted/valid since the previous sample. */
    uint64_t windowAttempted = 0;
    uint64_t windowValid = 0;
    /** Features suppressed by validity feedback at sample time. */
    uint64_t suppressed = 0;
    /**
     * Distinct plan fingerprints seen by the shard at sample time —
     * the novelty trajectory guided generation is meant to bend upward
     * (bench/learning_curve plots it per mode).
     */
    uint64_t cumPlans = 0;

    double
    windowValidityRate() const
    {
        if (windowAttempted == 0)
            return 0.0;
        return static_cast<double>(windowValid) /
               static_cast<double>(windowAttempted);
    }

    bool operator==(const CurveSample &other) const = default;
};

/** Aggregated campaign results. */
struct CampaignStats
{
    uint64_t setupGenerated = 0;
    uint64_t setupSucceeded = 0;
    uint64_t checksAttempted = 0;
    /** Checks whose every query executed (validity-rate numerator). */
    uint64_t checksValid = 0;
    /** Every bug-inducing test case (Table 5 "Detected Bugs"). */
    uint64_t bugsDetected = 0;
    /** Detected bugs split by oracle name (Table 5 per-oracle view). */
    std::map<std::string, uint64_t> bugsByOracle;
    /**
     * Oracle runs that did not apply to the shape (e.g. PQS on a join
     * or an empty source). Never counted against validity.
     */
    uint64_t checksInapplicable = 0;
    /** Cases surviving prioritization (Table 5 "Prioritized Bugs"). */
    std::vector<BugCase> prioritizedBugs;
    /** Distinct SELECT plan fingerprints (Fig. 8 metric). */
    std::set<uint64_t> planFingerprints;
    /** Statements cut short by the execution budget (never bugs). */
    uint64_t resourceErrors = 0;
    /** REFRESH retries performed after transient failures. */
    uint64_t refreshRetries = 0;
    /** Campaigns abandoned by the watchdog deadline (0 or 1 pre-merge). */
    uint64_t shardsAbandoned = 0;
    /**
     * Learning-curve samples in logical-time order (empty unless
     * CampaignConfig::curveInterval > 0). merge() appends the other
     * shard's samples, so the merged curve lists shards in merge
     * (= shard-index) order.
     */
    std::vector<CurveSample> curve;

    double
    validityRate() const
    {
        if (checksAttempted == 0)
            return 0.0;
        return static_cast<double>(checksValid) /
               static_cast<double>(checksAttempted);
    }

    double
    setupValidityRate() const
    {
        if (setupGenerated == 0)
            return 0.0;
        return static_cast<double>(setupSucceeded) /
               static_cast<double>(setupGenerated);
    }

    /**
     * Fold another campaign's results into this one: counters are
     * summed, plan fingerprints unioned, and `other`'s prioritized
     * bugs appended in order. Merging shards in a fixed order yields
     * identical totals regardless of how many workers produced them;
     * cross-shard bug dedup is the scheduler's job (it re-runs the
     * prioritizer over the merged stream before calling this).
     */
    void merge(const CampaignStats &other);

    /** Field-by-field equality (checkpoint/resume verification). */
    bool operator==(const CampaignStats &other) const = default;
};

/** Runs campaigns against one dialect. */
class CampaignRunner
{
  public:
    explicit CampaignRunner(CampaignConfig config);

    /**
     * Run against an explicit profile instead of a registered dialect
     * name — the fault-matrix tests build synthetic single-fault
     * dialects this way. config.dialect is overwritten by the
     * profile's name.
     */
    CampaignRunner(CampaignConfig config, const DialectProfile &profile);

    /** Run the full campaign and return the stats. */
    CampaignStats run();

    /** The feedback tracker (inspect learned state after run()). */
    const FeedbackTracker &feedback() const { return *tracker_; }
    FeatureRegistry &registry() { return registry_; }
    /** The guided selector, or nullptr when guidance is Off. */
    const GuidedSelector *guidance() const { return guide_.get(); }

    /**
     * Replay a bug case on a profile: rebuild the database, rerun the
     * oracle. True when the bug still manifests. When @p replayed is
     * non-null it receives the oracle's full result (e.g. to refresh a
     * reduced case's recorded query list). A replay loop passes one
     * @p cache to all its replays so each distinct text is parsed
     * once; with none every statement is parsed afresh.
     */
    static bool reproduces(const DialectProfile &profile,
                           const BugCase &bug,
                           OracleResult *replayed = nullptr,
                           StatementCache *cache = nullptr);

    /**
     * Ground-truth attribution: find the injected fault whose removal
     * makes the bug disappear. nullopt when no single fault explains it.
     * The replays on every ablated profile share one StatementCache.
     */
    static std::optional<FaultId>
    attributeFault(const DialectProfile &profile, const BugCase &bug);

    /**
     * Count distinct underlying bugs among prioritized cases using
     * ground-truth attribution (the paper's "Unique Bugs" column).
     */
    static size_t countUniqueBugs(const DialectProfile &profile,
                                  const std::vector<BugCase> &bugs);

  private:
    /** Shared ctor tail once profile_ and config_ are fixed. */
    void initGeneratorStack();
    void buildState(Connection &connection, CampaignStats &stats,
                    std::vector<std::string> &setup_log);

    CampaignConfig config_;
    /** Local profile copy (faults stripped under disableFaults). */
    DialectProfile profile_;
    FeatureRegistry registry_;
    std::unique_ptr<FeedbackTracker> tracker_;
    std::unique_ptr<FeatureGate> gate_;
    std::unique_ptr<GuidedSelector> guide_;
    SchemaModel model_;
};

} // namespace sqlpp

#endif // SQLPP_CORE_CAMPAIGN_H

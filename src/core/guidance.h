/**
 * @file
 * Search-guided generation: a deterministic bandit over generator
 * choice points.
 *
 * The adaptive generator learns *validity* (feedback.h suppresses
 * features the dialect rejects) but spends no part of the statement
 * budget chasing *novelty*: it keeps regenerating shapes whose plans
 * the campaign has already seen. GuidedSelector closes that loop. Every
 * choice point in the generator — which expression node, which
 * operator, how many joins — becomes an *arm*; pulling an arm means
 * generating that construct, and an arm is rewarded when the resulting
 * statement surfaces a previously unseen plan fingerprint or a coverage
 * probe new to the campaign's CoverageCapture (campaign.cc wires the
 * reward signal).
 *
 * Determinism is the hard requirement: replay, reducers, resume and the
 * share-nothing scheduler merge all assume that re-running a shard
 * regenerates identical statements. So there is no entropy anywhere:
 *  - UCB1 scores are pure arithmetic over the arm counters, ties are
 *    broken by candidate index, and unpulled arms are visited in index
 *    order;
 *  - Thompson sampling draws its posterior samples from fnv1a of
 *    (salt, selection sequence number, arm name, arm counters) — the
 *    same salt-derived idiom the PQS and EET oracles use — so the same
 *    salt and pull history always reproduce the same arm sequence.
 *
 * Arm state lives beside the validity counters in FeatureStats
 * (guidedPulls / guidedRewarded), so checkpointing, `absorb()` merging
 * and persistence ride the existing feedback channel unchanged. The
 * novelty estimate composes *multiplicatively* with the validity
 * posterior, and suppressed features are excluded from the candidate
 * set outright: guidance can never resurrect a feature the tracker has
 * learned the dialect rejects.
 */
#ifndef SQLPP_CORE_GUIDANCE_H
#define SQLPP_CORE_GUIDANCE_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/feature.h"
#include "core/feedback.h"

namespace sqlpp {

/** How the generator spends its statement budget. */
enum class GuidanceMode
{
    /** No guidance: every choice point stays uniform (legacy behavior). */
    Off,
    /** UCB1 over arm means with a deterministic index tie-break. */
    Ucb,
    /** Thompson sampling with salt-derived (replayable) draws. */
    Thompson,
};

const char *guidanceModeName(GuidanceMode mode);

/** Parse "off" / "ucb" / "thompson" (case-insensitive). */
bool parseGuidanceMode(const std::string &name, GuidanceMode &mode);

/** Tunables for guided generation. */
struct GuidanceConfig
{
    GuidanceMode mode = GuidanceMode::Off;
    /** UCB1 exploration constant (the classical sqrt(2)). */
    double exploration = 1.41421356237309515;
    /**
     * Salt for Thompson draws. 0 means "derive from the campaign seed"
     * (CampaignRunner does so via fnv1a, so distinct shards explore
     * distinct trajectories while each shard stays replayable).
     */
    uint64_t salt = 0;
};

/**
 * The bandit. Bound to a shard's FeedbackTracker (arm counters live in
 * FeatureStats) and FeatureRegistry (arms are interned features;
 * grammar-rule arms such as RULE_JOIN_COUNT_2 intern as
 * FeatureKind::Property).
 */
class GuidedSelector
{
  public:
    GuidedSelector(GuidanceConfig config, FeedbackTracker &tracker,
                   FeatureRegistry &registry);

    /**
     * Pick one arm among `arms` (feature names) and record the pull.
     * Arms whose features the tracker suppresses are excluded; if every
     * arm is suppressed the first is returned unpulled (the generator's
     * own gate then rejects it — guidance never overrides suppression).
     * Returns the chosen index; `chosen` (optional) receives the
     * interned id so the caller can attribute the eventual reward.
     */
    size_t choose(const std::vector<std::string> &arms,
                  FeatureId *chosen = nullptr);

    /**
     * Credit the pulls behind one generated statement. `novelty` is the
     * number of new plan fingerprints + new coverage probes the
     * statement surfaced (zero when the statement was cut short by the
     * execution budget — truncated results can fabricate "new" plans).
     * Each pulled arm's guidedRewarded advances at most once per pull,
     * so guidedRewarded <= guidedPulls always holds.
     */
    void reward(const std::vector<FeatureId> &arms, uint64_t novelty);

    /** Total choose() calls (the UCB horizon / Thompson sequence). */
    uint64_t selections() const { return selections_; }

    /**
     * The current leading arm — highest reward rate among pulled arms,
     * ties broken toward more pulls then lower feature id — rendered
     * as "name rewarded/pulls" for the live status board ("" before
     * any pull). Observability only; reads nothing the next choose()
     * does not already read.
     */
    std::string leader() const;

    const GuidanceConfig &config() const { return config_; }

    /**
     * UCB1 score for an arm: posterior-mean reward rate plus the
     * exploration bonus. Pure arithmetic, finite for every input —
     * including pulls == 0 and UINT64-scale counters (the property
     * tests pin this).
     */
    static double ucbScore(uint64_t pulls, uint64_t rewarded,
                           uint64_t total, double exploration);

    /**
     * Deterministic Thompson draw from the arm's Beta posterior,
     * clamped to [0, 1]. The draw is a pure function of
     * (salt, sequence, arm name, pulls, rewarded): fnv1a expands the
     * tuple into uniforms and an Irwin–Hall sum approximates the
     * Gaussian shape around the posterior mean. Finite for every
     * input, including UINT64-scale counters.
     */
    static double thompsonSample(uint64_t pulls, uint64_t rewarded,
                                 uint64_t salt, uint64_t sequence,
                                 const std::string &arm);

  private:
    double armScore(FeatureId id, const std::string &name) const;

    GuidanceConfig config_;
    FeedbackTracker &tracker_;
    FeatureRegistry &registry_;
    uint64_t selections_ = 0;
};

} // namespace sqlpp

#endif // SQLPP_CORE_GUIDANCE_H

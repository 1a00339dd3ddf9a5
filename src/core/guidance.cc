#include "core/guidance.h"

#include <cmath>

#include "util/enum_table.h"
#include "util/metrics.h"
#include "util/strutil.h"

namespace sqlpp {

namespace {

/** splitmix64 finalizer: cheap, high-quality 64-bit mixing. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Top 53 bits of a mixed word as a uniform in [0, 1). */
double
uniform01(uint64_t word)
{
    return static_cast<double>(word >> 11) * 0x1.0p-53;
}

constexpr EnumName<GuidanceMode> kGuidanceModes[] = {
    {GuidanceMode::Off, "off", "none"},
    {GuidanceMode::Ucb, "ucb", "ucb1"},
    {GuidanceMode::Thompson, "thompson", "ts"},
};
static_assert(inEnumOrder(kGuidanceModes, GuidanceMode::Thompson),
              "kGuidanceModes must list GuidanceMode in enum order");

} // namespace

const char *
guidanceModeName(GuidanceMode mode)
{
    return enumRow(kGuidanceModes, mode)->name;
}

bool
parseGuidanceMode(const std::string &name, GuidanceMode &mode)
{
    const auto *row = parseEnumRow(kGuidanceModes, name);
    if (row != nullptr)
        mode = row->value;
    return row != nullptr;
}

GuidedSelector::GuidedSelector(GuidanceConfig config,
                               FeedbackTracker &tracker,
                               FeatureRegistry &registry)
    : config_(config), tracker_(tracker), registry_(registry)
{
}

double
GuidedSelector::ucbScore(uint64_t pulls, uint64_t rewarded,
                         uint64_t total, double exploration)
{
    // Posterior mean under a uniform prior: never 0/0, never exactly 0
    // or 1, and monotone in the evidence. For pulls == 0 the prior mean
    // with a unit-pull bonus keeps the score finite (choose() visits
    // unpulled arms explicitly, so this value only orders unpulled arms
    // against each other, where they tie anyway).
    double pulled = pulls == 0 ? 1.0 : static_cast<double>(pulls);
    double mean = (static_cast<double>(rewarded) + 1.0) /
                  (static_cast<double>(pulls) + 2.0);
    // log1p stays finite at UINT64 scale (~44.4); the bonus shrinks as
    // sqrt(log(total) / pulls) per UCB1.
    double bonus =
        exploration *
        std::sqrt(std::log1p(static_cast<double>(total)) / pulled);
    return mean + bonus;
}

double
GuidedSelector::thompsonSample(uint64_t pulls, uint64_t rewarded,
                               uint64_t salt, uint64_t sequence,
                               const std::string &arm)
{
    // Beta(rewarded + 1, misses + 1) posterior. Clamp misses defensively
    // so even a corrupt checkpoint (rewarded > pulls) cannot produce a
    // negative count, a NaN, or an Inf.
    uint64_t misses = pulls > rewarded ? pulls - rewarded : 0;
    double a = static_cast<double>(rewarded) + 1.0;
    double b = static_cast<double>(misses) + 1.0;
    double mean = a / (a + b);
    double variance = (a * b) / ((a + b) * (a + b) * (a + b + 1.0));
    double stddev = std::sqrt(variance);

    // Salt-derived entropy (the PQS/EET fnv1a idiom): the draw is a
    // pure function of the tuple below, so replay and resume regenerate
    // the exact arm sequence.
    uint64_t state = fnv1a(arm, salt);
    state = mix64(state ^ sequence);
    state = mix64(state ^ pulls);
    state = mix64(state ^ rewarded);

    // Irwin–Hall(4): the sum of four uniforms has mean 2 and variance
    // 1/3; recentered and rescaled it approximates a standard normal
    // with strictly bounded tails (|z| <= 2 * sqrt(3)).
    double sum = 0.0;
    for (int draw = 0; draw < 4; ++draw) {
        state = mix64(state);
        sum += uniform01(state);
    }
    double z = (sum - 2.0) * 1.7320508075688772;

    double sample = mean + z * stddev;
    if (sample < 0.0)
        return 0.0;
    if (sample > 1.0)
        return 1.0;
    return sample;
}

double
GuidedSelector::armScore(FeatureId id, const std::string &name) const
{
    const FeatureStats &stat = tracker_.stats(id);
    double novelty =
        config_.mode == GuidanceMode::Thompson
            ? thompsonSample(stat.guidedPulls, stat.guidedRewarded,
                             config_.salt, selections_, name)
            : ucbScore(stat.guidedPulls, stat.guidedRewarded,
                       selections_, config_.exploration);
    // Multiplicative composition with the validity posterior: an arm
    // the dialect mostly rejects is down-weighted in exact proportion,
    // and a suppressed arm never even reaches this point (choose()
    // filters by shouldGenerate first).
    return novelty * tracker_.estimatedProbability(id);
}

size_t
GuidedSelector::choose(const std::vector<std::string> &arms,
                       FeatureId *chosen)
{
    if (arms.empty())
        return 0;
    ++selections_;
    SQLPP_COUNT("generator.guided.selections");

    // Candidate set: intern every arm, drop the suppressed ones.
    std::vector<FeatureId> ids;
    ids.reserve(arms.size());
    std::vector<size_t> eligible;
    eligible.reserve(arms.size());
    for (size_t index = 0; index < arms.size(); ++index) {
        ids.push_back(
            registry_.intern(arms[index], FeatureKind::Property));
        if (tracker_.shouldGenerate(ids[index]))
            eligible.push_back(index);
    }
    if (eligible.empty()) {
        // Every arm is suppressed: do not pull; return the first arm
        // and let the generator's own gate reject it downstream.
        SQLPP_COUNT("generator.guided.all_suppressed");
        return 0;
    }

    // Deterministic initialization: visit unpulled arms in candidate
    // index order before any scoring.
    size_t best = eligible.front();
    bool found = false;
    for (size_t index : eligible) {
        if (tracker_.stats(ids[index]).guidedPulls == 0) {
            best = index;
            found = true;
            break;
        }
    }
    if (!found) {
        // Strict > keeps ties on the lowest candidate index.
        double best_score = armScore(ids[eligible.front()],
                                     arms[eligible.front()]);
        for (size_t at = 1; at < eligible.size(); ++at) {
            size_t index = eligible[at];
            double score = armScore(ids[index], arms[index]);
            if (score > best_score) {
                best_score = score;
                best = index;
            }
        }
    }

    tracker_.noteGuidedPull(ids[best]);
    if (chosen != nullptr)
        *chosen = ids[best];
    return best;
}

void
GuidedSelector::reward(const std::vector<FeatureId> &arms,
                       uint64_t novelty)
{
    if (novelty == 0 || arms.empty())
        return;
    SQLPP_COUNT_N("generator.guided.rewarded",
                  static_cast<int64_t>(arms.size()));
    for (FeatureId id : arms)
        tracker_.noteGuidedReward(id);
}

std::string
GuidedSelector::leader() const
{
    FeatureId best = 0;
    uint64_t best_pulls = 0;
    uint64_t best_rewarded = 0;
    double best_rate = -1.0;
    for (FeatureId id = 0;
         id < static_cast<FeatureId>(registry_.size()); ++id) {
        const FeatureStats &stats = tracker_.stats(id);
        if (stats.guidedPulls == 0)
            continue;
        double rate = static_cast<double>(stats.guidedRewarded) /
                      static_cast<double>(stats.guidedPulls);
        if (rate > best_rate ||
            (rate == best_rate && stats.guidedPulls > best_pulls)) {
            best = id;
            best_pulls = stats.guidedPulls;
            best_rewarded = stats.guidedRewarded;
            best_rate = rate;
        }
    }
    if (best_rate < 0.0)
        return "";
    return format("%s %llu/%llu", registry_.name(best).c_str(),
                  (unsigned long long)best_rewarded,
                  (unsigned long long)best_pulls);
}

} // namespace sqlpp

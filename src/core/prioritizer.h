/**
 * @file
 * Bug prioritization by feature-set subsumption (paper Section 3,
 * Fig. 4).
 *
 * A newly found bug-inducing test case is reported only if no
 * previously reported case's feature set is a subset of its own —
 * the intuition being that the earlier case already exercises the
 * (presumably faulty) features. The check is deliberately pragmatic:
 * false positives (two distinct bugs sharing features) and false
 * negatives (one bug reachable through disjoint feature sets) exist, as
 * the paper acknowledges; the benches quantify both against the fault
 * ground truth.
 */
#ifndef SQLPP_CORE_PRIORITIZER_H
#define SQLPP_CORE_PRIORITIZER_H

#include <vector>

#include "core/feature.h"

namespace sqlpp {

/** The paper's bug prioritizer. */
class BugPrioritizer
{
  public:
    /**
     * Decide whether a bug-inducing feature set is new. If it is, the
     * set is recorded and true is returned; otherwise (some known set
     * is a subset of it) it is classified a potential duplicate.
     */
    bool considerNew(const FeatureSet &features);

    /** Pure query form of the subset check, with no recording. */
    bool isPotentialDuplicate(const FeatureSet &features) const;

    /**
     * Merge another prioritizer's reported sets (same feature-id
     * space), preserving single-run semantics: each set goes through
     * considerNew() in order, so sets already subsumed by this
     * prioritizer's known sets are dropped. Returns how many sets were
     * adopted. Parallel shards with independently interned registries
     * must translate ids by name first (the scheduler does).
     */
    size_t absorb(const BugPrioritizer &other);

    size_t size() const { return known_.size(); }
    void clear() { known_.clear(); }

  private:
    std::vector<FeatureSet> known_;
};

} // namespace sqlpp

#endif // SQLPP_CORE_PRIORITIZER_H

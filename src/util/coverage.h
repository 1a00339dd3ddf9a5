/**
 * @file
 * Coverage probes: a line/branch-coverage proxy for the engine.
 *
 * The paper measures gcov line and branch coverage of the DBMS under
 * test (Table 3). Our DBMS substrate is in-process, so instead of gcov
 * we place named probes at the entry of every engine component path
 * (each physical operator, each rewrite rule, each scalar-function
 * implementation, each coercion path). The reported metric is the
 * fraction of registered probes a run hits; it orders configurations
 * the same way line coverage does — richer generated SQL touches more
 * engine paths.
 *
 * One mechanism records hits: a probe hit lands in the calling
 * thread's CoverageCapture, if one is installed, and nowhere else.
 * Guided generation reads a capture for its novelty reward, and
 * bench/table3_coverage wraps each campaign in one. Probes sit on
 * per-row evaluation hot paths, so a hit is one thread-local load and
 * a branch when no capture is installed.
 *
 * The probe sites define the probe universe. Each SQLPP_COVER site
 * registers its name during static initialisation, whether or not it
 * ever runs, and the function table registers one eval.fn.<name>
 * probe per scalar function when it is built, before any function can
 * be evaluated. CoverageRegistry only maps names to slots; declared()
 * is the denominator of the coverage ratio.
 */
#ifndef SQLPP_UTIL_COVERAGE_H
#define SQLPP_UTIL_COVERAGE_H

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace sqlpp {

/** Process-wide map from probe names to slots. */
class CoverageRegistry
{
  public:
    /**
     * Upper bound on probes per registry, so a capture's slot flags
     * are sized once; the engine universe is a few hundred probes, far
     * below this.
     */
    static constexpr size_t kMaxProbes = 4096;
    /**
     * The slot slot() answers once kMaxProbes names are declared:
     * never a declared slot, so hits through it reach no capture and
     * the name stays undeclared.
     */
    static constexpr size_t kOverflowSlot = kMaxProbes;

    /** The process-wide instance the engine's probes register in. */
    static CoverageRegistry &instance();

    /**
     * Resolve a probe name to its slot, declaring it if unknown.
     * Slots are stable for the process lifetime. A name past capacity
     * gets kOverflowSlot. Thread-safe.
     */
    size_t slot(const std::string &name);

    /** Number of declared probes, at most kMaxProbes. */
    size_t declared() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, size_t> slots_;
};

/**
 * Thread-local record of the probes hit while it is installed.
 *
 * Captures are per *thread*: a share-nothing shard runs entirely on
 * one worker thread, so its capture sees exactly its own hits in a
 * reproducible order regardless of worker count. Guided generation
 * needs that — "did this statement hit a new probe?" must not depend
 * on what concurrent shards happen to be doing, or merged campaigns
 * would differ between worker counts.
 *
 * RAII: constructing installs the capture on the current thread
 * (stacking over any previous one, which sees no hits until it is
 * restored), destructing restores the previous capture. Campaign code
 * drains novelty between statements via takeNewProbes().
 */
class CoverageCapture
{
  public:
    CoverageCapture();
    ~CoverageCapture();
    CoverageCapture(const CoverageCapture &) = delete;
    CoverageCapture &operator=(const CoverageCapture &) = delete;

    /**
     * Record one hit of a probe slot in the calling thread's capture;
     * a no-op when none is installed (hot path).
     */
    static void hit(size_t slot_index)
    {
        if (active_ != nullptr)
            active_->noteHit(slot_index);
    }

    /**
     * Probes hit since the last take that were new to this capture's
     * lifetime. Resets the pending count; the lifetime "seen" set keeps
     * accumulating.
     */
    size_t takeNewProbes();

    /** Distinct probes hit over this capture's lifetime. */
    size_t probesSeen() const { return seen_count_; }

  private:
    void noteHit(size_t slot_index);

    /** The calling thread's installed capture, or nullptr. */
    static inline constinit thread_local CoverageCapture *active_ =
        nullptr;

    /** One flag per slot; sized kMaxProbes so noteHit never resizes. */
    std::vector<char> seen_;
    size_t fresh_ = 0;
    size_t seen_count_ = 0;
    CoverageCapture *previous_ = nullptr;
};

/**
 * A probe name as a template argument, so that Probe is keyed by the
 * string literal a SQLPP_COVER site names.
 */
template <size_t N>
struct ProbeName
{
    consteval ProbeName(const char (&name)[N])
    {
        for (size_t i = 0; i < N; ++i)
            text[i] = name[i];
    }

    char text[N];
};

/**
 * The slot of one probe name, resolved during static initialisation:
 * every SQLPP_COVER site instantiates it, so each site registers its
 * name before main even if it never runs, and a hit reads the slot
 * with no initialisation guard.
 */
template <ProbeName Name>
struct Probe
{
    static inline const size_t slot =
        CoverageRegistry::instance().slot(Name.text);
};

/** Hot-path probe: records a hit of the named probe (a literal). */
#define SQLPP_COVER(name)                                              \
    ::sqlpp::CoverageCapture::hit(::sqlpp::Probe<name>::slot)

} // namespace sqlpp

#endif // SQLPP_UTIL_COVERAGE_H

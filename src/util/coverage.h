/**
 * @file
 * Coverage-probe registry: a line/branch-coverage proxy for the engine.
 *
 * The paper measures gcov line and branch coverage of the DBMS under
 * test (Table 3). Our DBMS substrate is in-process, so instead of gcov
 * we place named probes at the entry of every engine component path
 * (each physical operator, each rewrite rule, each scalar-function
 * implementation, each coercion path). The reported metric is the
 * fraction of registered probes hit since the last reset; it orders
 * configurations the same way line coverage does — richer generated SQL
 * touches more engine paths.
 *
 * Probes sit on per-row evaluation hot paths, so hits must be cheap:
 * call sites resolve their name to a slot once (function-local static)
 * and afterwards a hit is a single relaxed atomic increment.
 *
 * The registry is shared by every campaign worker thread (the engine
 * probes always hit the process-wide instance), so slot counters live
 * in a fixed-capacity atomic array that never reallocates: hits need
 * no lock, and only name registration takes the registry mutex.
 */
#ifndef SQLPP_UTIL_COVERAGE_H
#define SQLPP_UTIL_COVERAGE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sqlpp {

/**
 * Process-wide registry of named coverage probes.
 *
 * Probes self-register on first use. Registration of the full probe
 * universe happens up front via declareEngineCoverageProbes() so that
 * the denominator is stable even for probes never hit.
 */
class CoverageRegistry
{
  public:
    /**
     * Upper bound on probes per registry. Counters live in a
     * fixed-capacity array so hitSlot() never races a reallocation;
     * the engine universe is a few hundred probes, far below this.
     */
    static constexpr size_t kMaxProbes = 4096;
    /**
     * The slot slot() answers once kMaxProbes names are declared:
     * never a declared slot, so hits through it are dropped and the
     * name stays undeclared.
     */
    static constexpr size_t kOverflowSlot = kMaxProbes;

    CoverageRegistry();

    /** The process-wide instance used by the engine's probes. */
    static CoverageRegistry &instance();

    /**
     * Resolve a probe name to its slot, declaring it if unknown.
     * Slots are stable for the process lifetime. A name past capacity
     * gets kOverflowSlot. Thread-safe.
     */
    size_t slot(const std::string &name);

    /** Declare a probe without hitting it (fixes the denominator). */
    void declare(const std::string &name) { (void)slot(name); }

    /**
     * Record one hit via a pre-resolved slot (hot path). Lock-free;
     * safe to call concurrently from campaign worker threads. Hits are
     * additionally mirrored into the calling thread's CoverageCapture,
     * if one is installed (guided generation's novelty signal).
     */
    void hitSlot(size_t slot_index);

    /** Record one hit by name (cold path; resolves the slot). */
    void hit(const std::string &name) { hitSlot(slot(name)); }

    /** Number of declared probes, at most kMaxProbes. */
    size_t declared() const
    {
        return declared_.load(std::memory_order_acquire);
    }

    /** Number of probes with at least one hit. */
    size_t covered() const;

    /** covered() / declared(), or 0 when nothing is declared. */
    double ratio() const;

    /** Total hits of the named probe since the last reset. */
    uint64_t hits(const std::string &name) const;

    /** Reset all hit counts; declared probes stay declared. */
    void reset();

    /** Names of declared probes that have never been hit. */
    std::vector<std::string> uncovered() const;

  private:
    /** Guards slots_ and names_; counters themselves are atomic. */
    mutable std::mutex mutex_;
    std::map<std::string, size_t> slots_;
    std::vector<std::string> names_;
    /** Published count of declared probes (reads need no lock). */
    std::atomic<size_t> declared_{0};
    /** Fixed-capacity hit counters: indexes never move or reallocate. */
    std::unique_ptr<std::atomic<uint64_t>[]> counts_;
};

/**
 * Thread-local view of coverage-probe novelty.
 *
 * The registry's counters are process-wide, so "did this statement hit
 * a new probe?" computed from them would depend on what concurrent
 * shards happen to be doing — a nondeterminism the guided generator
 * cannot tolerate (merged campaigns must be bit-identical for any
 * worker count). A CoverageCapture instead records, per *thread*, the
 * set of probe slots hit while it is installed; a share-nothing shard
 * runs entirely on one worker thread, so its capture sees exactly its
 * own hits in a reproducible order regardless of worker count.
 *
 * RAII: constructing installs the capture on the current thread
 * (stacking over any previous one), destructing restores the previous
 * capture. Campaign code drains novelty between statements via
 * takeNewProbes().
 */
class CoverageCapture
{
  public:
    CoverageCapture();
    ~CoverageCapture();
    CoverageCapture(const CoverageCapture &) = delete;
    CoverageCapture &operator=(const CoverageCapture &) = delete;

    /**
     * Probes hit since the last take that were new to this capture's
     * lifetime. Resets the pending count; the lifetime "seen" set keeps
     * accumulating.
     */
    size_t takeNewProbes();

    /** Distinct probes hit over this capture's lifetime. */
    size_t probesSeen() const { return seen_count_; }

    /** Called from CoverageRegistry::hitSlot on the owning thread. */
    void noteHit(size_t slot_index);

  private:
    /** One flag per slot; sized kMaxProbes so noteHit never resizes. */
    std::vector<char> seen_;
    size_t fresh_ = 0;
    size_t seen_count_ = 0;
    CoverageCapture *previous_ = nullptr;
};

/**
 * Hot-path probe: resolves the slot once per call site, then each hit
 * is a single increment.
 */
#define SQLPP_COVER(name)                                              \
    do {                                                               \
        static const size_t sqlpp_cover_slot =                         \
            ::sqlpp::CoverageRegistry::instance().slot(name);          \
        ::sqlpp::CoverageRegistry::instance().hitSlot(                 \
            sqlpp_cover_slot);                                         \
    } while (0)

} // namespace sqlpp

#endif // SQLPP_UTIL_COVERAGE_H

#include "util/coverage.h"

namespace sqlpp {

namespace {

/**
 * The calling thread's active capture, or nullptr. Thread-local, so
 * hitSlot stays lock-free and captures never observe another thread's
 * hits.
 */
thread_local CoverageCapture *t_active_capture = nullptr;

} // namespace

void
CoverageRegistry::hitSlot(size_t slot_index)
{
    if (slot_index >= kMaxProbes)
        return;
    counts_[slot_index].fetch_add(1, std::memory_order_relaxed);
    if (t_active_capture != nullptr)
        t_active_capture->noteHit(slot_index);
}

CoverageCapture::CoverageCapture()
    : seen_(CoverageRegistry::kMaxProbes, 0)
{
    previous_ = t_active_capture;
    t_active_capture = this;
}

CoverageCapture::~CoverageCapture()
{
    t_active_capture = previous_;
}

void
CoverageCapture::noteHit(size_t slot_index)
{
    if (slot_index >= seen_.size() || seen_[slot_index] != 0)
        return;
    seen_[slot_index] = 1;
    ++fresh_;
    ++seen_count_;
}

size_t
CoverageCapture::takeNewProbes()
{
    size_t fresh = fresh_;
    fresh_ = 0;
    return fresh;
}

CoverageRegistry::CoverageRegistry()
    : counts_(new std::atomic<uint64_t>[kMaxProbes])
{
    for (size_t i = 0; i < kMaxProbes; ++i)
        counts_[i].store(0, std::memory_order_relaxed);
}

CoverageRegistry &
CoverageRegistry::instance()
{
    static CoverageRegistry registry;
    return registry;
}

size_t
CoverageRegistry::slot(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = slots_.find(name);
    if (it != slots_.end())
        return it->second;
    size_t index = names_.size();
    if (index >= kMaxProbes) {
        // Registry full: drop the overflow's hits rather than write
        // past the counters.
        return kOverflowSlot;
    }
    slots_.emplace(name, index);
    names_.push_back(name);
    declared_.store(names_.size(), std::memory_order_release);
    return index;
}

size_t
CoverageRegistry::covered() const
{
    size_t total = declared();
    size_t n = 0;
    for (size_t i = 0; i < total; ++i) {
        if (counts_[i].load(std::memory_order_relaxed) > 0)
            ++n;
    }
    return n;
}

double
CoverageRegistry::ratio() const
{
    size_t total = declared();
    if (total == 0)
        return 0.0;
    return static_cast<double>(covered()) / static_cast<double>(total);
}

uint64_t
CoverageRegistry::hits(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = slots_.find(name);
    if (it == slots_.end())
        return 0;
    return counts_[it->second].load(std::memory_order_relaxed);
}

void
CoverageRegistry::reset()
{
    size_t total = declared();
    for (size_t i = 0; i < total; ++i)
        counts_[i].store(0, std::memory_order_relaxed);
}

std::vector<std::string>
CoverageRegistry::uncovered() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    for (size_t i = 0; i < names_.size(); ++i) {
        if (counts_[i].load(std::memory_order_relaxed) == 0)
            out.push_back(names_[i]);
    }
    return out;
}

} // namespace sqlpp

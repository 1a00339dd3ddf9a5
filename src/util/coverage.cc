#include "util/coverage.h"

namespace sqlpp {

CoverageCapture::CoverageCapture()
    : seen_(CoverageRegistry::kMaxProbes, 0)
{
    previous_ = active_;
    active_ = this;
}

CoverageCapture::~CoverageCapture()
{
    active_ = previous_;
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
    size_t index = slots_.size();
    if (index >= kMaxProbes)
        return kOverflowSlot;
    slots_.emplace(name, index);
    return index;
}

size_t
CoverageRegistry::declared() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return slots_.size();
}

} // namespace sqlpp

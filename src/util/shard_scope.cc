#include "util/shard_scope.h"

#include "util/metrics.h"
#include "util/trace.h"

namespace sqlpp {

thread_local constinit size_t tls_shard_lane = 0;

ShardScope::ShardScope(size_t shard_index, const std::string &label)
    : previous_lane_(tls_shard_lane)
{
    size_t lane = shardLane(shard_index);
    MetricsRegistry::instance().bindLane(lane, label);
    TraceRecorder::instance().bindLane(lane, label);
    tls_shard_lane = lane;
}

ShardScope::~ShardScope()
{
    tls_shard_lane = previous_lane_;
}

} // namespace sqlpp

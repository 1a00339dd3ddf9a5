/**
 * @file
 * Shard lanes: the one binding from a campaign shard to its telemetry.
 *
 * Metrics (util/metrics.h), the flight recorder (util/trace.h), and
 * the progress board (core/progress.h) each keep fixed per-shard
 * storage, one *lane* per shard. A ShardScope binds the executing
 * thread to one shard for its lifetime, and all three stores read the
 * same thread-local lane index (currentShardLane()). The scheduler
 * opens one scope per shard execution.
 *
 * Lane 0 is the unbound sink: code running outside any scope (tests,
 * benches, a standalone CampaignRunner) records there. Shard i maps to
 * lane i % kMaxShards + 1. Lane choice depends only on the shard
 * index, never on which worker ran the shard, so per-lane values,
 * traces, and their sums are independent of the worker count, like
 * the scheduler's deterministic CampaignStats merge.
 */
#ifndef SQLPP_UTIL_SHARD_SCOPE_H
#define SQLPP_UTIL_SHARD_SCOPE_H

#include <cstddef>
#include <string>

namespace sqlpp {

/** Shard lanes per store; lanes 1..kMaxShards, plus the sink lane 0. */
inline constexpr size_t kMaxShards = 256;

/** The shard index that means "no shard" (maps to the sink lane). */
inline constexpr size_t kNoShard = static_cast<size_t>(-1);

/** Lane a shard index maps to: kNoShard -> 0, else i % kMaxShards + 1. */
constexpr size_t
shardLane(size_t shard_index)
{
    return shard_index == kNoShard ? 0 : shard_index % kMaxShards + 1;
}

/** The calling thread's bound lane; written only by ShardScope. */
extern thread_local constinit size_t tls_shard_lane;

/** The lane the calling thread records into (0 when unbound). */
inline size_t
currentShardLane()
{
    return tls_shard_lane;
}

/**
 * Binds the current thread to a shard's metric lane, trace lane, and
 * progress cell for the scope's lifetime. Binding creates the shard's
 * metric and trace lane storage on first use and relabels an existing
 * lane. Scopes nest; the previous binding is restored on destruction.
 */
class ShardScope
{
  public:
    ShardScope(size_t shard_index, const std::string &label);
    ~ShardScope();

    ShardScope(const ShardScope &) = delete;
    ShardScope &operator=(const ShardScope &) = delete;

  private:
    size_t previous_lane_;
};

} // namespace sqlpp

#endif // SQLPP_UTIL_SHARD_SCOPE_H

#include "core/progress.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "util/enum_table.h"
#include "util/seqlock.h"
#include "util/strutil.h"
#include "util/trace.h"

namespace sqlpp {

namespace {

constexpr EnumName<ShardState> kShardStates[] = {
    {ShardState::Pending, "pending"},
    {ShardState::Running, "running"},
    {ShardState::Done, "done"},
    {ShardState::Restored, "restored"},
    {ShardState::Abandoned, "abandoned"},
};
static_assert(inEnumOrder(kShardStates, ShardState::Abandoned),
              "kShardStates must list ShardState in enum order");

/**
 * Pack a string into NUL-padded atomic words under the cell's
 * seqlock. Single writer per cell by the board's write discipline, so
 * the version is purely for readers.
 */
void
storeString(ProgressBoard::Cell &cell, std::atomic<uint64_t> *words,
            size_t word_count, const std::string &value)
{
    uint64_t packed[ProgressBoard::kLeaderWords] = {};
    size_t capacity = word_count * sizeof(uint64_t) - 1;
    std::memcpy(packed, value.data(), std::min(value.size(), capacity));
    seqlockWrite(cell.version, words, packed, word_count);
}

/** Seqlock read of a packed string; "" after too many retries. */
std::string
loadString(const ProgressBoard::Cell &cell,
           const std::atomic<uint64_t> *words, size_t word_count)
{
    uint64_t packed[ProgressBoard::kLeaderWords];
    if (!seqlockRead(cell.version, words, packed, word_count))
        return "";
    const char *bytes = reinterpret_cast<const char *>(packed);
    return std::string(bytes,
                       strnlen(bytes, word_count * sizeof(uint64_t)));
}

} // namespace

const char *
shardStateName(ShardState state)
{
    return enumRow(kShardStates, state)->name;
}

ProgressBoard &
ProgressBoard::instance()
{
    static ProgressBoard board;
    return board;
}

ProgressBoard::Cell &
ProgressBoard::current()
{
    return instance().cells_[currentShardLane()];
}

uint64_t
ProgressBoard::nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
ProgressBoard::beginCampaign(size_t workers, size_t shards,
                             uint64_t checks_target)
{
    for (Cell &cell : cells_) {
        cell.state.store(0, std::memory_order_relaxed);
        cell.seed.store(0, std::memory_order_relaxed);
        cell.checksTarget.store(0, std::memory_order_relaxed);
        cell.checksAttempted.store(0, std::memory_order_relaxed);
        cell.checksValid.store(0, std::memory_order_relaxed);
        cell.bugsDetected.store(0, std::memory_order_relaxed);
        cell.plans.store(0, std::memory_order_relaxed);
        cell.resourceErrors.store(0, std::memory_order_relaxed);
        cell.suppressed.store(0, std::memory_order_relaxed);
        cell.setupGenerated.store(0, std::memory_order_relaxed);
        cell.setupSucceeded.store(0, std::memory_order_relaxed);
        cell.tick.store(0, std::memory_order_relaxed);
        cell.deadlineMs.store(0, std::memory_order_relaxed);
        cell.lastAdvanceNs.store(0, std::memory_order_relaxed);
        storeString(cell, cell.label, kLabelWords, "");
        storeString(cell, cell.leader, kLeaderWords, "");
    }
    workers_.store(workers, std::memory_order_relaxed);
    shards_.store(shards, std::memory_order_relaxed);
    checksTarget_.store(checks_target, std::memory_order_relaxed);
    startNs_.store(nowNs(), std::memory_order_relaxed);
    active_.store(true, std::memory_order_release);
}

void
ProgressBoard::initShard(size_t shard_index, const std::string &label,
                         uint64_t seed, uint64_t checks,
                         double deadline_seconds)
{
    Cell &c = cell(shard_index);
    c.seed.store(seed, std::memory_order_relaxed);
    c.checksTarget.store(checks, std::memory_order_relaxed);
    c.deadlineMs.store(
        deadline_seconds > 0.0
            ? static_cast<uint64_t>(deadline_seconds * 1000.0)
            : 0,
        std::memory_order_relaxed);
    storeString(c, c.label, kLabelWords, label);
}

void
ProgressBoard::setShardState(size_t shard_index, ShardState state)
{
    cell(shard_index)
        .state.store(static_cast<uint64_t>(state),
                     std::memory_order_relaxed);
}

void
ProgressBoard::fillRestoredShard(size_t shard_index, uint64_t attempted,
                                 uint64_t valid, uint64_t bugs,
                                 uint64_t plans,
                                 uint64_t resource_errors)
{
    Cell &c = cell(shard_index);
    c.checksAttempted.store(attempted, std::memory_order_relaxed);
    c.checksValid.store(valid, std::memory_order_relaxed);
    c.bugsDetected.store(bugs, std::memory_order_relaxed);
    c.plans.store(plans, std::memory_order_relaxed);
    c.resourceErrors.store(resource_errors, std::memory_order_relaxed);
    c.state.store(static_cast<uint64_t>(ShardState::Restored),
                  std::memory_order_relaxed);
}

void
ProgressBoard::finishCampaign()
{
    active_.store(false, std::memory_order_release);
}

void
ProgressBoard::setStallThresholdSeconds(double seconds)
{
    stallThresholdMs_.store(
        seconds > 0.0 ? static_cast<uint64_t>(seconds * 1000.0) : 0,
        std::memory_order_relaxed);
}

CampaignProgress
ProgressBoard::snapshot() const
{
    CampaignProgress out;
    out.active = active_.load(std::memory_order_acquire);
    out.workers =
        static_cast<size_t>(workers_.load(std::memory_order_relaxed));
    out.shardsTotal =
        static_cast<size_t>(shards_.load(std::memory_order_relaxed));
    out.checksTarget = checksTarget_.load(std::memory_order_relaxed);
    uint64_t stall_ms =
        stallThresholdMs_.load(std::memory_order_relaxed);
    out.stallThresholdSeconds =
        static_cast<double>(stall_ms) / 1000.0;
    uint64_t now = nowNs();
    uint64_t start = startNs_.load(std::memory_order_relaxed);
    out.uptimeSeconds =
        start == 0 || now < start
            ? 0.0
            : static_cast<double>(now - start) / 1e9;

    size_t visible = std::min(out.shardsTotal, kMaxShards);
    out.shards.reserve(visible);
    for (size_t index = 0; index < visible; ++index) {
        const Cell &c = cells_[shardLane(index)];
        ShardProgress shard;
        shard.shardIndex = index;
        shard.state = static_cast<ShardState>(
            c.state.load(std::memory_order_relaxed));
        shard.seed = c.seed.load(std::memory_order_relaxed);
        shard.checksTarget =
            c.checksTarget.load(std::memory_order_relaxed);
        shard.checksAttempted =
            c.checksAttempted.load(std::memory_order_relaxed);
        shard.checksValid =
            c.checksValid.load(std::memory_order_relaxed);
        shard.bugsDetected =
            c.bugsDetected.load(std::memory_order_relaxed);
        shard.plans = c.plans.load(std::memory_order_relaxed);
        shard.resourceErrors =
            c.resourceErrors.load(std::memory_order_relaxed);
        shard.suppressed =
            c.suppressed.load(std::memory_order_relaxed);
        shard.setupGenerated =
            c.setupGenerated.load(std::memory_order_relaxed);
        shard.setupSucceeded =
            c.setupSucceeded.load(std::memory_order_relaxed);
        shard.tick = c.tick.load(std::memory_order_relaxed);
        shard.deadlineSeconds =
            static_cast<double>(
                c.deadlineMs.load(std::memory_order_relaxed)) /
            1000.0;
        shard.label = loadString(c, c.label, kLabelWords);
        shard.banditLeader = loadString(c, c.leader, kLeaderWords);

        // Stall clock: age since the last advance, falling back to the
        // campaign start for a shard that never advanced at all (a
        // wedged first statement is the most suspicious case of all).
        uint64_t last =
            c.lastAdvanceNs.load(std::memory_order_relaxed);
        uint64_t baseline = last != 0 ? last : start;
        if (baseline != 0 && now >= baseline)
            shard.lastAdvanceSeconds =
                static_cast<double>(now - baseline) / 1e9;
        shard.stalled = shard.state == ShardState::Running &&
                        stall_ms > 0 &&
                        shard.lastAdvanceSeconds >= 0.0 &&
                        shard.lastAdvanceSeconds * 1000.0 >
                            static_cast<double>(stall_ms);

        out.checksAttempted += shard.checksAttempted;
        out.checksValid += shard.checksValid;
        out.bugsDetected += shard.bugsDetected;
        out.plans += shard.plans;
        out.resourceErrors += shard.resourceErrors;
        switch (shard.state) {
          case ShardState::Pending: break;
          case ShardState::Running: ++out.shardsRunning; break;
          case ShardState::Done: ++out.shardsDone; break;
          case ShardState::Restored: ++out.shardsRestored; break;
          case ShardState::Abandoned: ++out.shardsAbandoned; break;
        }
        out.shards.push_back(std::move(shard));
    }

    if (out.uptimeSeconds > 0.0)
        out.checksPerSecond =
            static_cast<double>(out.checksAttempted) /
            out.uptimeSeconds;
    if (out.checksPerSecond > 0.0 &&
        out.checksTarget > out.checksAttempted)
        out.etaSeconds =
            static_cast<double>(out.checksTarget -
                                out.checksAttempted) /
            out.checksPerSecond;
    else if (out.checksTarget <= out.checksAttempted)
        out.etaSeconds = 0.0;
    return out;
}

namespace progress {

void
noteBanditLeader(const std::string &name)
{
    ProgressBoard::Cell &cell = ProgressBoard::current();
    storeString(cell, cell.leader, ProgressBoard::kLeaderWords, name);
}

} // namespace progress

std::string
renderStatusJson(const CampaignProgress &snapshot)
{
    std::string out = "{\n  \"schema\": \"sqlpp.status.v1\",\n";
    out += format(
        "  \"campaign\": {\"active\": %s, \"workers\": %zu, "
        "\"uptime_seconds\": %.3f, \"shards_total\": %zu, "
        "\"shards_done\": %zu, \"shards_running\": %zu, "
        "\"shards_restored\": %zu, \"shards_abandoned\": %zu, "
        "\"checks_target\": %llu, \"checks_attempted\": %llu, "
        "\"checks_valid\": %llu, \"validity\": %.4f, "
        "\"bugs_detected\": %llu, \"plans\": %llu, "
        "\"resource_errors\": %llu, \"checks_per_second\": %.1f, "
        "\"eta_seconds\": %.1f, "
        "\"stall_threshold_seconds\": %.1f},\n",
        snapshot.active ? "true" : "false", snapshot.workers,
        snapshot.uptimeSeconds, snapshot.shardsTotal,
        snapshot.shardsDone, snapshot.shardsRunning,
        snapshot.shardsRestored, snapshot.shardsAbandoned,
        (unsigned long long)snapshot.checksTarget,
        (unsigned long long)snapshot.checksAttempted,
        (unsigned long long)snapshot.checksValid,
        snapshot.validityRate(),
        (unsigned long long)snapshot.bugsDetected,
        (unsigned long long)snapshot.plans,
        (unsigned long long)snapshot.resourceErrors,
        snapshot.checksPerSecond, snapshot.etaSeconds,
        snapshot.stallThresholdSeconds);
    out += "  \"shards\": [";
    for (size_t i = 0; i < snapshot.shards.size(); ++i) {
        const ShardProgress &shard = snapshot.shards[i];
        if (i > 0)
            out += ",";
        out += format(
            "\n    {\"shard\": %zu, \"label\": \"%s\", "
            "\"state\": \"%s\", \"seed\": %llu, "
            "\"checks_target\": %llu, \"checks_attempted\": %llu, "
            "\"checks_valid\": %llu, \"validity\": %.4f, "
            "\"bugs\": %llu, \"plans\": %llu, "
            "\"resource_errors\": %llu, \"suppressed\": %llu, "
            "\"setup_generated\": %llu, \"setup_succeeded\": %llu, "
            "\"tick\": %llu, \"deadline_seconds\": %.1f, "
            "\"bandit_leader\": \"%s\", "
            "\"last_advance_seconds\": %.3f, \"stalled\": %s}",
            shard.shardIndex,
            jsonEscape(shard.label).c_str(),
            shardStateName(shard.state),
            (unsigned long long)shard.seed,
            (unsigned long long)shard.checksTarget,
            (unsigned long long)shard.checksAttempted,
            (unsigned long long)shard.checksValid,
            shard.validityRate(),
            (unsigned long long)shard.bugsDetected,
            (unsigned long long)shard.plans,
            (unsigned long long)shard.resourceErrors,
            (unsigned long long)shard.suppressed,
            (unsigned long long)shard.setupGenerated,
            (unsigned long long)shard.setupSucceeded,
            (unsigned long long)shard.tick, shard.deadlineSeconds,
            jsonEscape(shard.banditLeader).c_str(),
            shard.lastAdvanceSeconds,
            shard.stalled ? "true" : "false");
    }
    out += "\n  ],\n  \"stalled\": [";
    bool first_stalled = true;
    for (const ShardProgress &shard : snapshot.shards) {
        if (!shard.stalled)
            continue;
        if (!first_stalled)
            out += ",";
        first_stalled = false;
        out += format(
            "\n    {\"shard\": %zu, \"label\": \"%s\", "
            "\"tick\": %llu, \"last_advance_seconds\": %.3f, "
            "\"recent_events\": [",
            shard.shardIndex,
            jsonEscape(shard.label).c_str(),
            (unsigned long long)shard.tick,
            shard.lastAdvanceSeconds);
        // The diagnosis payload: the stalled shard's newest
        // flight-recorder events, so the report explains what the
        // shard was doing right before it went silent.
        std::vector<TraceEvent> events =
            TraceRecorder::instance().recentShardEvents(
                shard.shardIndex, 8);
        size_t lane = shardLane(shard.shardIndex);
        for (size_t e = 0; e < events.size(); ++e) {
            if (e > 0)
                out += ", ";
            out += traceEventJson(lane, shard.label, events[e]);
        }
        out += "]}";
    }
    out += "\n  ]\n}\n";
    return out;
}

std::string
renderProgressLine(const CampaignProgress &snapshot)
{
    double percent =
        snapshot.checksTarget == 0
            ? 0.0
            : 100.0 * static_cast<double>(snapshot.checksAttempted) /
                  static_cast<double>(snapshot.checksTarget);
    std::string line = format(
        "progress: %llu/%llu checks (%.1f%%) | %.0f checks/s | "
        "validity %.1f%% | bugs %llu | shards %zu/%zu done",
        (unsigned long long)snapshot.checksAttempted,
        (unsigned long long)snapshot.checksTarget, percent,
        snapshot.checksPerSecond, 100.0 * snapshot.validityRate(),
        (unsigned long long)snapshot.bugsDetected,
        snapshot.shardsDone + snapshot.shardsRestored +
            snapshot.shardsAbandoned,
        snapshot.shardsTotal);
    if (snapshot.shardsRunning > 0)
        line += format(" (%zu running)", snapshot.shardsRunning);
    if (snapshot.etaSeconds >= 0.0)
        line += format(" | eta %.1fs", snapshot.etaSeconds);
    for (const ShardProgress &shard : snapshot.shards) {
        if (shard.stalled)
            line += format(" | STALLED %s(#%zu) silent %.1fs",
                           shard.label.c_str(), shard.shardIndex,
                           shard.lastAdvanceSeconds);
    }
    return line;
}

} // namespace sqlpp

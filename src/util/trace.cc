#include "util/trace.h"

#include <algorithm>
#include <optional>

#include "util/seqlock.h"
#include "util/strutil.h"

namespace sqlpp {

const char *
traceEventTypeName(TraceEventType type)
{
    return enumRow(kTraceEventNames, type)->name;
}

TraceRecorder::TraceRecorder()
{
    for (auto &lane : lanes_)
        lane.store(nullptr, std::memory_order_relaxed);
    // Lane 0 always exists so unscoped recording never branches on
    // creation.
    bindLane(0, "");
}

TraceRecorder &
TraceRecorder::instance()
{
    static TraceRecorder recorder;
    return recorder;
}

void
TraceRecorder::bindLane(size_t lane_index, const std::string &label)
{
    // Cold path (once per shard scope); the mutex also orders label
    // writes against the exporter, which reads labels under it.
    std::lock_guard<std::mutex> lock(mutex_);
    if (Lane *existing =
            lanes_[lane_index].load(std::memory_order_relaxed);
        existing != nullptr) {
        // A later in-process run may bind the same lane under a new
        // shard layout; the label follows the latest binding.
        if (existing->label != label)
            existing->label = label;
        return;
    }
    auto lane = std::make_unique<Lane>();
    lane->label = label;
    lane->ring = std::make_unique<std::atomic<uint64_t>[]>(
        kRingCapacity * kEventWords);
    lane->versions =
        std::make_unique<std::atomic<uint64_t>[]>(kRingCapacity);
    lanes_[lane_index].store(lane.get(), std::memory_order_release);
    lane_storage_.push_back(std::move(lane));
}

uint64_t
TraceRecorder::bumpTick()
{
    Lane *lane_ptr = lane(currentShardLane());
    return lane_ptr->tick.fetch_add(1, std::memory_order_relaxed) + 1;
}

uint64_t
TraceRecorder::currentTick() const
{
    const Lane *lane_ptr = lane(currentShardLane());
    return lane_ptr->tick.load(std::memory_order_relaxed);
}

void
TraceRecorder::record(TraceEventType type, std::string_view detail,
                      uint64_t a, uint64_t b)
{
    Lane *lane_ptr = lane(currentShardLane());
    // Reserve a slot. A shard runs on one thread at a time, so the
    // reservation doubles as full ownership of the slot; concurrent
    // writers only ever share lane 0, where a wrapped race merely
    // overwrites one flight-recorder entry.
    uint64_t sequence =
        lane_ptr->recorded.fetch_add(1, std::memory_order_acq_rel);
    size_t slot = static_cast<size_t>(sequence % kRingCapacity);
    TraceEvent event;
    event.tick = lane_ptr->tick.load(std::memory_order_relaxed);
    event.type = type;
    event.a = a;
    event.b = b;
    size_t copy =
        std::min(detail.size(), TraceEvent::kDetailCapacity - 1);
    std::memcpy(event.detail, detail.data(), copy);
    event.detail[copy] = '\0';
    // Seqlock publish: live readers (the status server's /trace
    // handler) skip the slot while a write is in flight.
    uint64_t words[kEventWords];
    std::memcpy(words, &event, sizeof(event));
    seqlockWrite(lane_ptr->versions[slot],
                 &lane_ptr->ring[slot * kEventWords], words, kEventWords);
}

bool
TraceRecorder::readSlot(const Lane &lane, size_t slot, TraceEvent *out)
{
    uint64_t words[kEventWords];
    if (!seqlockRead(lane.versions[slot], &lane.ring[slot * kEventWords],
                     words, kEventWords))
        return false;
    std::memcpy(out, words, sizeof(*out));
    return true;
}

std::vector<TraceEvent>
TraceRecorder::laneEvents(size_t lane_index) const
{
    std::vector<TraceEvent> out;
    if (lane_index > kMaxShards)
        return out;
    const Lane *lane_ptr = lane(lane_index);
    if (lane_ptr == nullptr)
        return out;
    uint64_t recorded = lane_ptr->recorded.load(std::memory_order_acquire);
    uint64_t retained = std::min<uint64_t>(recorded, kRingCapacity);
    out.reserve(static_cast<size_t>(retained));
    for (uint64_t i = recorded - retained; i < recorded; ++i) {
        TraceEvent event;
        // A slot that stays torn across all retries is one the
        // campaign is rewriting right now; only live status-server
        // reads can see that, and they simply skip it. Post-run
        // exports have no concurrent writers, so every slot reads
        // clean and the deterministic byte-identity contract holds.
        if (readSlot(*lane_ptr, static_cast<size_t>(i % kRingCapacity),
                     &event))
            out.push_back(event);
    }
    return out;
}

std::vector<TraceEvent>
TraceRecorder::recentShardEvents(size_t shard_index,
                                 size_t max_events) const
{
    std::vector<TraceEvent> events =
        laneEvents(shardLane(shard_index));
    if (events.size() > max_events)
        events.erase(events.begin(),
                     events.end() - static_cast<long>(max_events));
    return events;
}

uint64_t
TraceRecorder::laneRecorded(size_t lane_index) const
{
    if (lane_index > kMaxShards)
        return 0;
    const Lane *lane_ptr = lane(lane_index);
    return lane_ptr == nullptr
               ? 0
               : lane_ptr->recorded.load(std::memory_order_acquire);
}

std::string
TraceRecorder::laneLabel(size_t lane_index) const
{
    if (lane_index > kMaxShards)
        return "";
    std::lock_guard<std::mutex> lock(mutex_);
    const Lane *lane_ptr = lane(lane_index);
    return lane_ptr == nullptr ? "" : lane_ptr->label;
}

std::vector<TraceLane>
TraceRecorder::usedLanes() const
{
    std::vector<TraceLane> out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t index = 0; index <= kMaxShards; ++index) {
        const Lane *lane_ptr = lane(index);
        if (lane_ptr == nullptr)
            continue;
        uint64_t recorded =
            lane_ptr->recorded.load(std::memory_order_acquire);
        if (recorded != 0)
            out.push_back({index, lane_ptr->label, recorded});
    }
    return out;
}

void
TraceRecorder::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t index = 0; index <= kMaxShards; ++index) {
        Lane *lane_ptr = lane(index);
        if (lane_ptr == nullptr)
            continue;
        lane_ptr->tick.store(0, std::memory_order_relaxed);
        lane_ptr->recorded.store(0, std::memory_order_relaxed);
    }
}

std::string
traceEventJson(size_t lane_index, const std::string &label,
               const TraceEvent &event)
{
    return format(
        "{\"lane\": %zu, \"shard\": \"%s\", \"tick\": %llu, "
        "\"type\": \"%s\", \"detail\": \"%s\", \"a\": %llu, "
        "\"b\": %llu}",
        lane_index, jsonEscape(label).c_str(),
        (unsigned long long)event.tick, traceEventTypeName(event.type),
        jsonEscape(event.detail).c_str(),
        (unsigned long long)event.a, (unsigned long long)event.b);
}

namespace {

/** The event lines of an export and the counts its header carries. */
struct TraceBody
{
    std::string lines;
    /** Lanes contributing at least one line. */
    size_t lanes = 0;
    /** Lines written. */
    uint64_t events = 0;
    /** Recorded minus retained, summed over lanes. */
    uint64_t dropped = 0;
    /** Largest retained tick, filtered out or not. */
    uint64_t maxTick = 0;
};

/**
 * Render every retained event of every used lane, lanes in lane order
 * and events oldest first, keeping only ticks above `since_tick` when
 * one is given.
 */
TraceBody
traceBody(std::optional<uint64_t> since_tick)
{
    TraceRecorder &recorder = TraceRecorder::instance();
    TraceBody body;
    for (const TraceLane &lane : recorder.usedLanes()) {
        std::vector<TraceEvent> events = recorder.laneEvents(lane.index);
        body.dropped += lane.recorded - events.size();
        uint64_t written = 0;
        for (const TraceEvent &event : events) {
            body.maxTick = std::max(body.maxTick, event.tick);
            if (since_tick && event.tick <= *since_tick)
                continue;
            body.lines += traceEventJson(lane.index, lane.label, event);
            body.lines += "\n";
            ++written;
        }
        if (written != 0)
            ++body.lanes;
        body.events += written;
    }
    return body;
}

} // namespace

std::string
exportTraceJsonl()
{
    TraceBody body = traceBody(std::nullopt);
    return format("{\"schema\": \"sqlpp.trace.v1\", \"ring\": %zu, "
                  "\"lanes\": %zu, \"events\": %llu, \"dropped\": %llu}\n",
                  TraceRecorder::kRingCapacity, body.lanes,
                  (unsigned long long)body.events,
                  (unsigned long long)body.dropped) +
           body.lines;
}

std::string
exportTraceDeltaJsonl(uint64_t since_tick)
{
    TraceBody body = traceBody(since_tick);
    return format("{\"schema\": \"sqlpp.trace.delta.v1\", \"since\": %llu, "
                  "\"tick\": %llu, \"lanes\": %zu, \"events\": %llu}\n",
                  (unsigned long long)since_tick,
                  (unsigned long long)body.maxTick, body.lanes,
                  (unsigned long long)body.events) +
           body.lines;
}

uint64_t
traceDroppedTotal()
{
    uint64_t dropped = 0;
    for (const TraceLane &lane : TraceRecorder::instance().usedLanes())
        dropped += lane.recorded -
                   std::min<uint64_t>(lane.recorded,
                                      TraceRecorder::kRingCapacity);
    return dropped;
}

std::string
traceSchemaDescription()
{
    std::string out = "sqlpp.trace.v1\n";
    out += "header: schema=string ring=int lanes=int events=int "
           "dropped=int\n";
    out += "event: lane=int shard=string tick=int type=string "
           "detail=string a=int b=int\n";
    out += "types:\n";
    for (const auto &row : kTraceEventNames) {
        out += "  ";
        out += row.name;
        out += "\n";
    }
    return out;
}

} // namespace sqlpp

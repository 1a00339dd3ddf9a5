/**
 * @file
 * Single-writer seqlock over relaxed atomic words.
 *
 * The flight-recorder ring slots (util/trace.h) and the progress
 * board's short strings (core/progress.h) are written by one thread
 * and read live by the status server. Data words are relaxed atomics,
 * so readers never race; the version makes a torn multi-word read
 * detectable. The writer stores an odd version, fences, writes the
 * words, and publishes the next even version. The release fence is
 * what keeps the data stores after the odd version: a release *store*
 * alone orders only earlier accesses, so a reader could otherwise see
 * new words between two equal even versions.
 */
#ifndef SQLPP_UTIL_SEQLOCK_H
#define SQLPP_UTIL_SEQLOCK_H

#include <atomic>

namespace sqlpp {

/** Publish `write()`'s relaxed stores under `version` (one writer). */
template <typename Version, typename Write>
void
seqlockWrite(std::atomic<Version> &version, Write &&write)
{
    Version v = version.load(std::memory_order_relaxed);
    version.store(v + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    write();
    version.store(v + 2, std::memory_order_release);
}

/**
 * Run `read()` (relaxed loads only) until it sees one stable even
 * version; false when a writer kept racing it for every attempt.
 */
template <typename Version, typename Read>
bool
seqlockRead(const std::atomic<Version> &version, Read &&read)
{
    for (int attempt = 0; attempt < 64; ++attempt) {
        Version before = version.load(std::memory_order_acquire);
        if ((before & 1) != 0)
            continue;
        read();
        std::atomic_thread_fence(std::memory_order_acquire);
        if (version.load(std::memory_order_relaxed) == before)
            return true;
    }
    return false;
}

} // namespace sqlpp

#endif // SQLPP_UTIL_SEQLOCK_H

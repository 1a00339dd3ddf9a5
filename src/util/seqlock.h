/**
 * @file
 * Single-writer seqlock over atomic words.
 *
 * The flight-recorder ring slots (util/trace.h) and the progress
 * board's short strings (core/progress.h) are written by one thread
 * and read live by the status server. Data words are atomics, so
 * readers never race; the version makes a torn multi-word read
 * detectable. The writer stores an odd version, then each word with
 * release, then the next even version with release. The reader loads
 * the version with acquire, each word with acquire, then the version
 * again. A word the reader loads from a newer write synchronises with
 * that word's store, which follows the odd version, so the second
 * version load sees the odd version (or a later one) and the read
 * retries. No standalone fence is needed, so ThreadSanitizer models
 * the whole ordering.
 */
#ifndef SQLPP_UTIL_SEQLOCK_H
#define SQLPP_UTIL_SEQLOCK_H

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace sqlpp {

/** Publish `values` into `words` under `version` (one writer). */
template <typename Version>
void
seqlockWrite(std::atomic<Version> &version, std::atomic<uint64_t> *words,
             const uint64_t *values, size_t count)
{
    Version v = version.load(std::memory_order_relaxed);
    version.store(v + 1, std::memory_order_relaxed);
    for (size_t i = 0; i < count; ++i)
        words[i].store(values[i], std::memory_order_release);
    version.store(v + 2, std::memory_order_release);
}

/**
 * Copy `words` into `out` until one copy sees one stable even
 * version; false when a writer kept racing it for every attempt.
 */
template <typename Version>
bool
seqlockRead(const std::atomic<Version> &version,
            const std::atomic<uint64_t> *words, uint64_t *out, size_t count)
{
    for (int attempt = 0; attempt < 64; ++attempt) {
        Version before = version.load(std::memory_order_acquire);
        if ((before & 1) != 0)
            continue;
        for (size_t i = 0; i < count; ++i)
            out[i] = words[i].load(std::memory_order_acquire);
        if (version.load(std::memory_order_relaxed) == before)
            return true;
    }
    return false;
}

} // namespace sqlpp

#endif // SQLPP_UTIL_SEQLOCK_H

/**
 * @file
 * A small, dependency-free deterministic parallel execution layer. Its
 * one production caller is the serialized-plan sweep engine
 * (sweep/engine.h), which runs the chunks of `act sweep` -- fleet
 * replay, Monte Carlo and the other sweep domains -- on it. The
 * in-process design-space loops (dse, mobile, accel) are plain serial
 * loops: their items are microseconds each, and threads measurably
 * cost them time.
 *
 * Design contract -- determinism first:
 *  - Work is split into *static* chunks whose boundaries depend only on
 *    the iteration range and grain, never on the thread count. Threads
 *    pull chunks dynamically, but which chunk produced which result is
 *    fixed, so the sweep engine keeps per-chunk results in chunk order
 *    and returns bit-identical output for any thread count (including
 *    1, the serial fallback).
 *  - Each parallel `runChunks` call starts its own helper threads and
 *    joins them before it returns, so no thread outlives the call, and
 *    a nested call simply starts helpers of its own.
 *  - The worker count resolves as: programmatic override
 *    (`setThreadCount`) > `ACT_THREADS` environment variable >
 *    `std::thread::hardware_concurrency()`.
 *
 * Bodies passed to `runChunks` run concurrently and must be
 * thread-safe (pure functions over disjoint output slots are the
 * intended usage).
 */

#ifndef ACT_UTIL_PARALLEL_H
#define ACT_UTIL_PARALLEL_H

#include <cstddef>
#include <functional>
#include <vector>

namespace act::util {

/**
 * Effective worker count for parallel sections: the `setThreadCount`
 * override when set, else `ACT_THREADS` (parsed once), else the
 * hardware concurrency; always at least 1.
 */
std::size_t threadCount();

/**
 * Override the worker count for subsequent parallel sections. Pass 0 to
 * restore automatic resolution (ACT_THREADS / hardware concurrency).
 * Thread-safe; it takes effect at the next `runChunks` call.
 */
void setThreadCount(std::size_t count);

/** A half-open index range [begin, end). */
struct IndexRange
{
    std::size_t begin = 0;
    std::size_t end = 0;

    std::size_t size() const { return end - begin; }
};

/**
 * Split [begin, end) into consecutive chunks of @p grain indices (the
 * last chunk may be short). With grain 0 an automatic grain is chosen
 * as a function of the range size only, so chunk boundaries -- and
 * therefore reduction order -- never depend on the thread count.
 */
std::vector<IndexRange> staticChunks(std::size_t begin, std::size_t end,
                                     std::size_t grain);

/**
 * Invoke @p body(chunk_index, range) once per chunk. With
 * `min(threadCount(), chunks.size())` workers above 1, the calling
 * thread and workers - 1 helper threads started for this call claim
 * chunks until none is left; the helpers are joined before it
 * returns. Runs serially on the calling thread when that minimum is 1.
 */
void runChunks(const std::vector<IndexRange> &chunks,
               const std::function<void(std::size_t, IndexRange)> &body);

} // namespace act::util

#endif // ACT_UTIL_PARALLEL_H

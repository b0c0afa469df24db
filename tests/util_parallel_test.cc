/** @file Tests for the deterministic parallel execution layer. */

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iterator>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dse/montecarlo.h"
#include "util/parallel.h"
#include "util/random.h"

namespace act::util {
namespace {

/** Thread counts the determinism contract is exercised at. */
std::vector<std::size_t>
contractThreadCounts()
{
    const std::size_t hardware = std::max<std::size_t>(
        1, std::thread::hardware_concurrency());
    return {1, 2, 7, hardware};
}

/** Restore automatic thread-count resolution after each test. */
class ParallelTest : public ::testing::Test
{
  protected:
    void TearDown() override { setThreadCount(0); }
};

TEST_F(ParallelTest, ThreadCountOverrideRoundTrips)
{
    setThreadCount(3);
    EXPECT_EQ(threadCount(), 3u);
    setThreadCount(0);
    EXPECT_GE(threadCount(), 1u);
}

TEST_F(ParallelTest, StaticChunksTileTheRangeExactly)
{
    const auto chunks = staticChunks(3, 25, 5);
    ASSERT_EQ(chunks.size(), 5u);
    std::size_t expected = 3;
    for (const IndexRange &range : chunks) {
        EXPECT_EQ(range.begin, expected);
        expected = range.end;
    }
    EXPECT_EQ(expected, 25u);
    EXPECT_EQ(chunks.back().size(), 2u);

    EXPECT_TRUE(staticChunks(4, 4, 8).empty());
}

TEST_F(ParallelTest, AutomaticGrainIsThreadCountIndependent)
{
    setThreadCount(1);
    const auto serial = staticChunks(0, 1000, 0);
    setThreadCount(7);
    const auto parallel = staticChunks(0, 1000, 0);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].begin, parallel[i].begin);
        EXPECT_EQ(serial[i].end, parallel[i].end);
    }
}

/** The threads of this process, or 0 where /proc/self/task is missing. */
std::size_t
processThreadCount()
{
    std::error_code error;
    const std::filesystem::directory_iterator tasks("/proc/self/task",
                                                    error);
    if (error)
        return 0;
    return static_cast<std::size_t>(
        std::distance(tasks, std::filesystem::directory_iterator{}));
}

/**
 * Re-read processThreadCount() every millisecond until @p done accepts
 * the count or about a second has passed, and return the last count. A
 * join returns once the kernel has cleared the thread's id, but the
 * thread stays listed in /proc/self/task a moment longer, until it is
 * reaped, so a count read straight after a join can include it.
 */
std::size_t
pollThreadCount(const std::function<bool(std::size_t)> &done)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    std::size_t count = processThreadCount();
    while (!done(count) && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        count = processThreadCount();
    }
    return count;
}

// Declared before every other test that calls runChunks, so that run
// in file order it sees a process no earlier parallel call has touched.
TEST_F(ParallelTest, NoThreadOutlivesRunChunks)
{
    // Start and join one thread first: a sanitizer runtime may start a
    // background thread of its own at the process's first thread
    // creation (TSan does), which must count on both sides.
    std::thread([] {}).join();
    // The baseline is the count once ten reads in a row agree, so the
    // joined thread is no longer listed.
    std::size_t previous = processThreadCount();
    int agreeing = 0;
    const std::size_t before = pollThreadCount([&](std::size_t count) {
        agreeing = count == previous ? agreeing + 1 : 0;
        previous = count;
        return agreeing >= 10;
    });
    if (before == 0)
        GTEST_SKIP() << "/proc/self/task is not available";
    setThreadCount(4);
    std::atomic<int> visited{0};
    runChunks(staticChunks(0, 64, 1),
              [&](std::size_t, IndexRange) { visited.fetch_add(1); });
    EXPECT_EQ(visited.load(), 64);
    EXPECT_EQ(pollThreadCount([&](std::size_t count) {
                  return count == before;
              }),
              before);
}

TEST_F(ParallelTest, RunChunksVisitsEveryIndexExactlyOnce)
{
    for (const std::size_t threads : contractThreadCounts()) {
        setThreadCount(threads);
        std::vector<std::atomic<int>> visits(1000);
        runChunks(staticChunks(0, visits.size(), 16),
                  [&](std::size_t, IndexRange range) {
                      for (std::size_t i = range.begin; i < range.end;
                           ++i)
                          visits[i].fetch_add(1);
                  });
        for (const auto &count : visits)
            EXPECT_EQ(count.load(), 1);
    }
}

TEST_F(ParallelTest, ChunkOrderedReductionIsBitIdenticalAcrossThreadCounts)
{
    // A floating-point sum whose value depends on evaluation order:
    // only a fixed chunk layout plus ordered reduction makes this
    // reproducible across thread counts.
    const auto sweep = [](std::size_t) {
        const std::vector<IndexRange> chunks =
            staticChunks(0, 100'000, 512);
        std::vector<double> partial(chunks.size());
        runChunks(chunks, [&](std::size_t chunk, IndexRange range) {
            double sum = 0.0;
            for (std::size_t i = range.begin; i < range.end; ++i)
                sum += std::sin(static_cast<double>(i)) * 1e-3 +
                       1.0 / static_cast<double>(i + 1);
            partial[chunk] = sum;
        });
        double total = 0.0;
        for (const double part : partial)
            total += part;
        return total;
    };

    setThreadCount(1);
    const double reference = sweep(0);
    for (const std::size_t threads : contractThreadCounts()) {
        setThreadCount(threads);
        for (int repeat = 0; repeat < 3; ++repeat) {
            const double value = sweep(threads);
            EXPECT_EQ(value, reference)
                << "thread count " << threads << " repeat " << repeat;
        }
    }
}

TEST_F(ParallelTest, NestedSectionsFinish)
{
    setThreadCount(4);
    std::atomic<int> total{0};
    runChunks(staticChunks(0, 8, 1), [&](std::size_t, IndexRange) {
        // The inner call, on a helper or on the calling thread, starts
        // and joins helpers of its own; it must not hang.
        runChunks(staticChunks(0, 10, 1),
                  [&](std::size_t, IndexRange) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 80);
}

TEST_F(ParallelTest, DerivedSeedsAreStableAndDistinct)
{
    EXPECT_EQ(deriveSeed(42, 0), deriveSeed(42, 0));
    EXPECT_NE(deriveSeed(42, 0), deriveSeed(42, 1));
    EXPECT_NE(deriveSeed(42, 0), deriveSeed(43, 0));

    // Streams should look independent: means of adjacent streams stay
    // near 1/2 (a weak but fast independence smoke test).
    for (std::uint64_t stream = 0; stream < 4; ++stream) {
        Xorshift64Star rng(deriveSeed(7, stream));
        double sum = 0.0;
        for (int draw = 0; draw < 4096; ++draw)
            sum += rng.nextUnit();
        EXPECT_NEAR(sum / 4096.0, 0.5, 0.03);
    }
}

TEST_F(ParallelTest, MonteCarloChunkedStreamsMatchAnalyticMoments)
{
    // The chunked per-stream sampler is a (documented) behavior change
    // from the old single sequential stream; the sampled distribution
    // must still match analytic moments within tight tolerance.
    const std::vector<dse::UncertainParameter> parameters = {
        {"a", dse::Distribution::Uniform, 0.5, 0.0, 1.0},
        {"b", dse::Distribution::Uniform, 0.5, 0.0, 1.0},
    };
    const auto result = dse::monteCarlo(
        parameters,
        [](const std::vector<double> &v) { return v[0] + v[1]; },
        50'000);
    EXPECT_NEAR(result.mean, 1.0, 0.01);
    EXPECT_NEAR(result.stddev, std::sqrt(1.0 / 6.0), 0.01);
    EXPECT_NEAR(result.p50, 1.0, 0.02);
}

} // namespace
} // namespace act::util

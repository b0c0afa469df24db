/**
 * @file
 * Metrics-registry tests: counter and histogram correctness under
 * concurrent updates from util/parallel helper threads, disabled-mode
 * no-op behavior for histograms, and snapshots. The metrics table is
 * rendered from the act.metrics.v2 document (util_metrics_merge_test).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/metrics.h"
#include "util/parallel.h"

namespace {

using namespace act;

/** Restores the metrics-enabled flag on scope exit. */
class ScopedMetricsEnabled
{
  public:
    explicit ScopedMetricsEnabled(bool enabled)
        : previous_(util::metricsEnabled())
    {
        util::setMetricsEnabled(enabled);
    }
    ~ScopedMetricsEnabled() { util::setMetricsEnabled(previous_); }

  private:
    bool previous_;
};

TEST(MetricsCounterTest, AddValue)
{
    util::Counter &counter =
        util::MetricsRegistry::instance().counter("test.counter.basic");
    EXPECT_EQ(counter.value(), 0u);
    counter.add();
    counter.add(41);
    EXPECT_EQ(counter.value(), 42u);
}

TEST(MetricsCounterTest, SameNameSameObject)
{
    util::Counter &first =
        util::MetricsRegistry::instance().counter("test.counter.same");
    util::Counter &second =
        util::MetricsRegistry::instance().counter("test.counter.same");
    EXPECT_EQ(&first, &second);
    const std::uint64_t before = second.value();
    first.add(7);
    EXPECT_EQ(second.value(), before + 7);
}

TEST(MetricsCounterTest, NotGatedByEnableFlag)
{
    ScopedMetricsEnabled disabled(false);
    util::Counter &counter = util::MetricsRegistry::instance().counter(
        "test.counter.ungated");
    const std::uint64_t before = counter.value();
    counter.add(3);
    EXPECT_EQ(counter.value(), before + 3);
}

TEST(MetricsCounterTest, ConcurrentAddsFromPool)
{
    constexpr std::size_t kIterations = 100'000;
    util::Counter &counter = util::MetricsRegistry::instance().counter(
        "test.counter.concurrent");
    for (std::size_t threads : {2u, 7u}) {
        const std::uint64_t before = counter.value();
        util::setThreadCount(threads);
        util::runChunks(util::staticChunks(0, kIterations, 0),
                        [&](std::size_t, util::IndexRange range) {
                            for (std::size_t i = range.begin;
                                 i < range.end; ++i)
                                counter.add();
                        });
        util::setThreadCount(0);
        EXPECT_EQ(counter.value() - before, kIterations);
    }
}

TEST(MetricsHistogramTest, DisabledModeRecordsNothing)
{
    ScopedMetricsEnabled disabled(false);
    util::Histogram &histogram =
        util::MetricsRegistry::instance().histogram(
            "test.histogram.disabled", {1.0, 10.0, 100.0});
    histogram.observe(5.0);
    histogram.observe(50.0);
    EXPECT_EQ(histogram.count(), 0u);
    EXPECT_DOUBLE_EQ(histogram.sum(), 0.0);
    EXPECT_DOUBLE_EQ(histogram.min(), 0.0);
    EXPECT_DOUBLE_EQ(histogram.max(), 0.0);
    for (const std::uint64_t count : histogram.bucketCounts())
        EXPECT_EQ(count, 0u);
}

TEST(MetricsHistogramTest, BucketPlacementAndStats)
{
    ScopedMetricsEnabled enabled(true);
    util::Histogram &histogram =
        util::MetricsRegistry::instance().histogram(
            "test.histogram.buckets", {1.0, 10.0, 100.0});
    histogram.observe(0.5);   // <= 1
    histogram.observe(1.0);   // <= 1 (bound is inclusive)
    histogram.observe(7.0);   // <= 10
    histogram.observe(90.0);  // <= 100
    histogram.observe(500.0); // overflow
    EXPECT_EQ(histogram.count(), 5u);
    EXPECT_DOUBLE_EQ(histogram.sum(), 598.5);
    EXPECT_DOUBLE_EQ(histogram.min(), 0.5);
    EXPECT_DOUBLE_EQ(histogram.max(), 500.0);
    const auto counts = histogram.bucketCounts();
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 1u);
    EXPECT_EQ(counts[2], 1u);
    EXPECT_EQ(counts[3], 1u);
}

TEST(MetricsHistogramTest, ConcurrentObservesFromPool)
{
    constexpr std::size_t kIterations = 50'000;
    ScopedMetricsEnabled enabled(true);
    util::Histogram &histogram =
        util::MetricsRegistry::instance().histogram(
            "test.histogram.concurrent", {0.5, 1.5});
    util::setThreadCount(4);
    // Every observation is exactly 1.0, so the count, the sum (exact
    // in double for small integers), and the middle bucket must all
    // equal the iteration count for any interleaving.
    util::runChunks(util::staticChunks(0, kIterations, 0),
                    [&](std::size_t, util::IndexRange range) {
                        for (std::size_t i = range.begin; i < range.end;
                             ++i)
                            histogram.observe(1.0);
                    });
    util::setThreadCount(0);
    EXPECT_EQ(histogram.count(), kIterations);
    EXPECT_DOUBLE_EQ(histogram.sum(),
                     static_cast<double>(kIterations));
    EXPECT_DOUBLE_EQ(histogram.min(), 1.0);
    EXPECT_DOUBLE_EQ(histogram.max(), 1.0);
    const auto counts = histogram.bucketCounts();
    ASSERT_EQ(counts.size(), 3u);
    EXPECT_EQ(counts[1], kIterations);
}

TEST(MetricsRegistryTest, SnapshotAndRendering)
{
    ScopedMetricsEnabled enabled(true);
    util::MetricsRegistry &registry = util::MetricsRegistry::instance();
    registry.counter("test.render.counter").add(5);
    util::Histogram &histogram =
        registry.histogram("test.render.histogram", {10.0, 20.0});
    histogram.observe(15.0);

    const util::MetricsSnapshot snapshot = registry.snapshot();
    bool counter_found = false;
    for (const auto &[name, value] : snapshot.counters) {
        if (name == "test.render.counter") {
            counter_found = true;
            EXPECT_EQ(value, 5u);
        }
    }
    EXPECT_TRUE(counter_found);
    bool histogram_found = false;
    for (const auto &entry : snapshot.histograms) {
        if (entry.name == "test.render.histogram") {
            histogram_found = true;
            EXPECT_EQ(entry.count, 1u);
            EXPECT_DOUBLE_EQ(entry.sum, 15.0);
            EXPECT_EQ(entry.bounds, (std::vector<double>{10.0, 20.0}));
            EXPECT_EQ(entry.counts,
                      (std::vector<std::uint64_t>{0, 1, 0}));
        }
    }
    EXPECT_TRUE(histogram_found);
}

TEST(MetricsRegistryTest, PoolInstrumentsPopulateWhenEnabled)
{
    ScopedMetricsEnabled enabled(true);
    util::MetricsRegistry &registry = util::MetricsRegistry::instance();
    util::Histogram &chunk_us = registry.histogram("parallel.chunk_us");
    util::Histogram &queue_wait_us =
        registry.histogram("parallel.queue_wait_us");
    util::Histogram &imbalance_pct =
        registry.histogram("parallel.imbalance_pct");
    util::Histogram &utilization_pct =
        registry.histogram("parallel.worker_utilization_pct");
    util::Counter &serial_jobs = registry.counter("parallel.serial_jobs");
    const std::uint64_t before = chunk_us.count();
    const std::uint64_t waits_before = queue_wait_us.count();
    const std::uint64_t imbalances_before = imbalance_pct.count();
    const std::uint64_t utilizations_before = utilization_pct.count();
    const auto spin = [](std::size_t, util::IndexRange range) {
        // Enough work per chunk that every duration reads above 0.
        volatile std::size_t sink = 0;
        for (std::size_t i = 0; i < 10'000 * range.size(); ++i)
            sink = sink + i;
    };
    util::setThreadCount(3);
    util::runChunks(util::staticChunks(0, 64, 8), spin);
    EXPECT_GT(chunk_us.count(), before);
    EXPECT_GT(queue_wait_us.count(), waits_before);
    EXPECT_GT(imbalance_pct.count(), imbalances_before);
    EXPECT_GT(utilization_pct.count(), utilizations_before);
    EXPECT_GT(registry.counter("parallel.jobs").value(), 0u);
    EXPECT_GT(registry.counter("parallel.chunks").value(), 0u);

    const std::uint64_t serial_before = serial_jobs.value();
    util::setThreadCount(1);
    util::runChunks(util::staticChunks(0, 64, 8), spin);
    util::setThreadCount(0);
    EXPECT_GT(serial_jobs.value(), serial_before);
}

} // namespace

/**
 * @file
 * Metrics-registry tests: counter and histogram correctness under
 * concurrent updates from the util/parallel thread pool, disabled-mode
 * no-op behavior for gated instruments, and snapshot/rendering.
 */

#include <gtest/gtest.h>

#include <string>

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

TEST(MetricsCounterTest, AddValueReset)
{
    util::Counter &counter =
        util::MetricsRegistry::instance().counter("test.counter.basic");
    counter.reset();
    EXPECT_EQ(counter.value(), 0u);
    counter.add();
    counter.add(41);
    EXPECT_EQ(counter.value(), 42u);
    counter.reset();
    EXPECT_EQ(counter.value(), 0u);
}

TEST(MetricsCounterTest, SameNameSameObject)
{
    util::Counter &first =
        util::MetricsRegistry::instance().counter("test.counter.same");
    util::Counter &second =
        util::MetricsRegistry::instance().counter("test.counter.same");
    EXPECT_EQ(&first, &second);
    first.reset();
    first.add(7);
    EXPECT_EQ(second.value(), 7u);
}

TEST(MetricsCounterTest, NotGatedByEnableFlag)
{
    ScopedMetricsEnabled disabled(false);
    util::Counter &counter = util::MetricsRegistry::instance().counter(
        "test.counter.ungated");
    counter.reset();
    counter.add(3);
    EXPECT_EQ(counter.value(), 3u);
}

TEST(MetricsCounterTest, ConcurrentAddsFromPool)
{
    constexpr std::size_t kIterations = 100'000;
    util::Counter &counter = util::MetricsRegistry::instance().counter(
        "test.counter.concurrent");
    counter.reset();
    for (std::size_t threads : {2u, 7u}) {
        util::setThreadCount(threads);
        util::runChunks(util::staticChunks(0, kIterations, 0),
                        [&](std::size_t, util::IndexRange range) {
                            for (std::size_t i = range.begin;
                                 i < range.end; ++i)
                                counter.add();
                        });
        util::setThreadCount(0);
        EXPECT_EQ(counter.value(), kIterations);
        counter.reset();
    }
}

TEST(MetricsGaugeTest, SetAndRead)
{
    util::Gauge &gauge =
        util::MetricsRegistry::instance().gauge("test.gauge.basic");
    gauge.set(12.5);
    EXPECT_DOUBLE_EQ(gauge.value(), 12.5);
    gauge.set(-3.0);
    EXPECT_DOUBLE_EQ(gauge.value(), -3.0);
}

TEST(MetricsHistogramTest, DisabledModeKeepsStatsButSkipsBuckets)
{
    ScopedMetricsEnabled disabled(false);
    util::Histogram &histogram =
        util::MetricsRegistry::instance().histogram(
            "test.histogram.disabled", {1.0, 10.0, 100.0});
    histogram.reset();
    histogram.observe(5.0);
    histogram.observe(50.0);
    // Summary statistics are always live (like counters) so snapshot
    // means work with metrics emission off...
    EXPECT_EQ(histogram.count(), 2u);
    EXPECT_DOUBLE_EQ(histogram.sum(), 55.0);
    EXPECT_DOUBLE_EQ(histogram.min(), 5.0);
    EXPECT_DOUBLE_EQ(histogram.max(), 50.0);
    // ...but the bucket scan stays gated.
    for (const std::uint64_t count : histogram.bucketCounts())
        EXPECT_EQ(count, 0u);
}

TEST(MetricsHistogramTest, BucketPlacementAndStats)
{
    ScopedMetricsEnabled enabled(true);
    util::Histogram &histogram =
        util::MetricsRegistry::instance().histogram(
            "test.histogram.buckets", {1.0, 10.0, 100.0});
    histogram.reset();
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
    const double p50 = histogram.quantile(0.50);
    EXPECT_GE(p50, 0.5);
    EXPECT_LE(p50, 10.0);
    const double p95 = histogram.quantile(0.95);
    EXPECT_GE(p95, 90.0);
    EXPECT_LE(p95, 500.0);
}

TEST(MetricsHistogramTest, ConcurrentObservesFromPool)
{
    constexpr std::size_t kIterations = 50'000;
    ScopedMetricsEnabled enabled(true);
    util::Histogram &histogram =
        util::MetricsRegistry::instance().histogram(
            "test.histogram.concurrent", {0.5, 1.5});
    histogram.reset();
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
    util::Counter &counter = registry.counter("test.render.counter");
    counter.reset();
    counter.add(5);
    registry.gauge("test.render.gauge").set(2.25);
    util::Histogram &histogram =
        registry.histogram("test.render.histogram", {10.0, 20.0});
    histogram.reset();
    histogram.observe(15.0);

    const util::MetricsSnapshot snapshot = registry.snapshot();
    EXPECT_FALSE(snapshot.empty());
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
            EXPECT_DOUBLE_EQ(entry.mean(), 15.0);
        }
    }
    EXPECT_TRUE(histogram_found);

    const std::string table = registry.renderTable();
    EXPECT_NE(table.find("test.render.counter"), std::string::npos);
    EXPECT_NE(table.find("test.render.histogram"), std::string::npos);
}

TEST(MetricsRegistryTest, PoolInstrumentsPopulateWhenEnabled)
{
    ScopedMetricsEnabled enabled(true);
    util::MetricsRegistry &registry = util::MetricsRegistry::instance();
    util::Histogram &chunk_us = registry.histogram("parallel.chunk_us");
    const std::uint64_t before = chunk_us.count();
    util::setThreadCount(3);
    util::runChunks(util::staticChunks(0, 64, 8),
                    [](std::size_t, util::IndexRange) {});
    util::setThreadCount(0);
    EXPECT_GT(chunk_us.count(), before);
    EXPECT_GT(registry.counter("parallel.jobs").value(), 0u);
    EXPECT_GT(registry.counter("parallel.chunks").value(), 0u);
}

} // namespace

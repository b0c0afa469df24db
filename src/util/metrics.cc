#include "util/metrics.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "util/env.h"
#include "util/logging.h"

namespace act::util {

namespace {

std::atomic<bool> g_metrics_enabled{false};

/** Parse ACT_METRICS once at startup; invalid values warn and are
 *  treated as unset, mirroring the ACT_THREADS policy. */
struct MetricsEnvInit
{
    MetricsEnvInit()
    {
        if (envBool("ACT_METRICS", false))
            g_metrics_enabled.store(true, std::memory_order_relaxed);
    }
} g_metrics_env_init;

/** The default duration bucket ladder, in microseconds: a 1/2/5
 *  decade ladder from 1 us to 10 s, suiting everything from a single
 *  chunk to a whole sweep. */
std::vector<double>
latencyBucketsUs()
{
    std::vector<double> bounds;
    for (double decade = 1.0; decade <= 1e6; decade *= 10.0) {
        bounds.push_back(decade);
        bounds.push_back(2.0 * decade);
        bounds.push_back(5.0 * decade);
    }
    bounds.push_back(1e7); // 10 s
    return bounds;
}

} // namespace

bool
metricsEnabled()
{
    return g_metrics_enabled.load(std::memory_order_relaxed);
}

void
setMetricsEnabled(bool enabled)
{
    g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> bucket_bounds)
    : bounds_(std::move(bucket_bounds)),
      buckets_(bounds_.size() + 1)
{
    if (!std::is_sorted(bounds_.begin(), bounds_.end()))
        panic("histogram bucket bounds must be ascending");
}

void
Histogram::observe(double value)
{
    // Nothing reads a histogram with metrics off, so nothing is
    // recorded: count always equals the sum of the bucket counts.
    if (!metricsEnabled())
        return;
    const auto bucket =
        std::lower_bound(bounds_.begin(), bounds_.end(), value);
    buckets_[static_cast<std::size_t>(bucket - bounds_.begin())]
        .fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t previous =
        count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    if (previous == 0) {
        // First observation seeds min/max so the CAS loops below start
        // from a real value rather than 0.
        min_.store(value, std::memory_order_relaxed);
        max_.store(value, std::memory_order_relaxed);
        return;
    }
    double seen = min_.load(std::memory_order_relaxed);
    while (value < seen &&
           !min_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
}

std::uint64_t
Histogram::count() const
{
    return count_.load(std::memory_order_relaxed);
}

double
Histogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

double
Histogram::min() const
{
    return min_.load(std::memory_order_relaxed);
}

double
Histogram::max() const
{
    return max_.load(std::memory_order_relaxed);
}

std::vector<std::uint64_t>
Histogram::bucketCounts() const
{
    std::vector<std::uint64_t> counts;
    counts.reserve(buckets_.size());
    for (const auto &bucket : buckets_)
        counts.push_back(bucket.load(std::memory_order_relaxed));
    return counts;
}

/** Name-keyed maps; node-based so references stay valid forever. */
struct MetricsRegistry::Impl
{
    mutable std::mutex mutex;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>>
        counters;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
        histograms;
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}

MetricsRegistry &
MetricsRegistry::instance()
{
    // Leaked on purpose: runChunks helpers still running when a fatal()
    // exits, and static destructors, may bump counters during shutdown.
    static MetricsRegistry *registry = new MetricsRegistry;
    return *registry;
}

Counter &
MetricsRegistry::counter(std::string_view name)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto found = impl_->counters.find(name);
    if (found == impl_->counters.end()) {
        found = impl_->counters
                    .emplace(std::string(name),
                             std::make_unique<Counter>())
                    .first;
    }
    return *found->second;
}

Histogram &
MetricsRegistry::histogram(std::string_view name,
                           std::vector<double> bucket_bounds)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto found = impl_->histograms.find(name);
    if (found == impl_->histograms.end()) {
        if (bucket_bounds.empty())
            bucket_bounds = latencyBucketsUs();
        found = impl_->histograms
                    .emplace(std::string(name),
                             std::make_unique<Histogram>(
                                 std::move(bucket_bounds)))
                    .first;
    }
    return *found->second;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snapshot;
    std::lock_guard<std::mutex> lock(impl_->mutex);
    for (const auto &[name, counter] : impl_->counters)
        snapshot.counters.emplace_back(name, counter->value());
    for (const auto &[name, histogram] : impl_->histograms) {
        HistogramSnapshot h;
        h.name = name;
        h.count = histogram->count();
        h.sum = histogram->sum();
        h.min = histogram->min();
        h.max = histogram->max();
        h.bounds = histogram->bounds();
        h.counts = histogram->bucketCounts();
        snapshot.histograms.push_back(std::move(h));
    }
    return snapshot;
}

} // namespace act::util

#include "util/metrics.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>

#include "util/env.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/table.h"

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

namespace {

/** Every thread's counter slab, kept alive past thread exit so late
 *  `value()` calls still see the contribution. Leaked on purpose. */
struct SlabRegistry
{
    std::mutex mutex;
    std::vector<std::shared_ptr<detail::CounterSlab>> slabs;
};

SlabRegistry &
slabRegistry()
{
    static SlabRegistry *registry = new SlabRegistry;
    return *registry;
}

std::size_t
allocateCounterId()
{
    static std::atomic<std::size_t> next{0};
    return next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

namespace detail {

CounterSlab *
registerCounterSlab()
{
    auto slab = std::make_shared<CounterSlab>();
    for (auto &value : slab->values)
        value.store(0, std::memory_order_relaxed);
    SlabRegistry &registry = slabRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.slabs.push_back(slab);
    return slab.get();
}

} // namespace detail

Counter::Counter() : id_(allocateCounterId())
{
    if (id_ >= detail::kCounterSlabSlots)
        warn("metrics counter slab exhausted (", id_,
             " counters); falling back to a shared slot");
}

std::uint64_t
Counter::value() const
{
    std::uint64_t total = spill_.load(std::memory_order_relaxed);
    if (id_ < detail::kCounterSlabSlots) {
        SlabRegistry &registry = slabRegistry();
        std::lock_guard<std::mutex> lock(registry.mutex);
        for (const auto &slab : registry.slabs)
            total += slab->values[id_].load(std::memory_order_relaxed);
    }
    return total;
}

void
Counter::reset()
{
    spill_.store(0, std::memory_order_relaxed);
    if (id_ < detail::kCounterSlabSlots) {
        SlabRegistry &registry = slabRegistry();
        std::lock_guard<std::mutex> lock(registry.mutex);
        for (const auto &slab : registry.slabs)
            slab->values[id_].store(0, std::memory_order_relaxed);
    }
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
    // count/sum/min/max are always live, like counters: means and
    // ranges survive into snapshots and metrics documents even when
    // bucket collection (and the clock reads feeding most histograms)
    // is off. Only the bucket scan is gated.
    if (metricsEnabled()) {
        const auto bucket =
            std::lower_bound(bounds_.begin(), bounds_.end(), value);
        buckets_[static_cast<std::size_t>(bucket - bounds_.begin())]
            .fetch_add(1, std::memory_order_relaxed);
    }
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

double
Histogram::quantile(double q) const
{
    const std::vector<std::uint64_t> counts = bucketCounts();
    std::uint64_t total = 0;
    for (std::uint64_t c : counts)
        total += c;
    if (total == 0)
        return 0.0;
    const double rank = q * static_cast<double>(total);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0)
            continue;
        const double before = static_cast<double>(cumulative);
        cumulative += counts[i];
        if (static_cast<double>(cumulative) < rank)
            continue;
        // Interpolate inside this bucket; the observed min/max clamp
        // the open-ended first and overflow buckets.
        const double lo = i == 0 ? min() : bounds_[i - 1];
        const double hi = i < bounds_.size() ? bounds_[i] : max();
        const double fraction =
            (rank - before) / static_cast<double>(counts[i]);
        const double clamped = std::clamp(fraction, 0.0, 1.0);
        return std::clamp(lo + (hi - lo) * clamped,
                          std::min(min(), hi), max());
    }
    return max();
}

void
Histogram::reset()
{
    for (auto &bucket : buckets_)
        bucket.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    min_.store(0.0, std::memory_order_relaxed);
    max_.store(0.0, std::memory_order_relaxed);
}

/** Name-keyed maps; node-based so references stay valid forever. */
struct MetricsRegistry::Impl
{
    mutable std::mutex mutex;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>>
        counters;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
        histograms;
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}

MetricsRegistry &
MetricsRegistry::instance()
{
    // Leaked on purpose: pool workers and static destructors may still
    // bump counters while the process shuts down.
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

Gauge &
MetricsRegistry::gauge(std::string_view name)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto found = impl_->gauges.find(name);
    if (found == impl_->gauges.end()) {
        found = impl_->gauges
                    .emplace(std::string(name),
                             std::make_unique<Gauge>())
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
    for (const auto &[name, gauge] : impl_->gauges)
        snapshot.gauges.emplace_back(name, gauge->value());
    for (const auto &[name, histogram] : impl_->histograms) {
        HistogramSnapshot h;
        h.name = name;
        h.count = histogram->count();
        h.sum = histogram->sum();
        h.min = histogram->min();
        h.max = histogram->max();
        h.p50 = histogram->quantile(0.50);
        h.p95 = histogram->quantile(0.95);
        const auto counts = histogram->bucketCounts();
        const auto &bounds = histogram->bounds();
        for (std::size_t i = 0; i < counts.size(); ++i) {
            const double bound =
                i < bounds.size()
                    ? bounds[i]
                    : std::numeric_limits<double>::infinity();
            h.buckets.emplace_back(bound, counts[i]);
        }
        snapshot.histograms.push_back(std::move(h));
    }
    return snapshot;
}

std::string
MetricsRegistry::renderTable() const
{
    const MetricsSnapshot data = snapshot();
    Table table({"Metric", "Count", "Mean", "P50", "P95", "Max"});
    for (const auto &[name, value] : data.counters)
        table.addRow({name, std::to_string(value), "", "", "", ""});
    for (const auto &[name, value] : data.gauges)
        table.addRow({name, "", formatSig(value, 4), "", "", ""});
    for (const auto &histogram : data.histograms) {
        table.addRow({histogram.name, std::to_string(histogram.count),
                      formatSig(histogram.mean(), 4),
                      formatSig(histogram.p50, 4),
                      formatSig(histogram.p95, 4),
                      formatSig(histogram.max, 4)});
    }
    return table.render();
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    for (const auto &[name, counter] : impl_->counters)
        counter->reset();
    for (const auto &[name, histogram] : impl_->histograms)
        histogram->reset();
}

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

} // namespace act::util

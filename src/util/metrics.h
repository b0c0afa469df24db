/**
 * @file
 * Process-wide metrics registry: named counters and fixed-bucket
 * histograms that any layer can update from any thread. Metrics leave
 * the registry in one form: `snapshot()`, which obs/metrics_doc.h
 * serializes as an `act.metrics.v2` document. Every metrics table
 * (bench `--metrics`, `act --metrics`, `act merge`) and the Prometheus
 * output are rendered from that document.
 *
 * Overhead contract:
 *  - Counters are always live: an update is one relaxed atomic.
 *    Counters are bumped per call or per block of work, never per
 *    sample, so model-level statistics (e.g. the Eq. 5 evaluation
 *    count) cost nothing measurable and work with metrics off.
 *  - Histograms record nothing while `metricsEnabled()` (a single
 *    relaxed atomic flag) is false, and callers gate any measurement
 *    feeding an observe (clock reads, per-chunk bookkeeping) on the
 *    same flag. A snapshot's histogram `count` therefore always equals
 *    the sum of its bucket counts.
 *  - Registration (`counter()`, `histogram()`) takes a lock
 *    and is intended for cold paths; call sites cache the returned
 *    reference, which stays valid for the life of the process (the
 *    registry is intentionally leaked so worker threads may update
 *    metrics during static destruction).
 *
 * Enable with `ACT_METRICS=1` in the environment, the `--metrics` flag
 * on the bench binaries / CLI, or `util::setMetricsEnabled(true)`.
 */

#ifndef ACT_UTIL_METRICS_H
#define ACT_UTIL_METRICS_H

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace act::util {

/** True when metrics collection (histograms, timed sections) is on. */
bool metricsEnabled();

/** Turn metrics collection on or off at runtime. */
void setMetricsEnabled(bool enabled);

/** A monotonically increasing count; always live, never gated. */
class Counter
{
  public:
    Counter() = default;
    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/**
 * A fixed-bucket histogram. Bucket upper bounds are set at registration
 * (ascending; one implicit overflow bucket is appended). `observe()`
 * records nothing while `metricsEnabled()` is false.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> bucket_bounds);
    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    void observe(double value);

    std::uint64_t count() const;
    double sum() const;
    double min() const;
    double max() const;

    const std::vector<double> &bounds() const { return bounds_; }

    /** Per-bucket counts at snapshot time (bounds + overflow). */
    std::vector<std::uint64_t> bucketCounts() const;

  private:
    std::vector<double> bounds_;
    std::vector<std::atomic<std::uint64_t>> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{0.0};
    std::atomic<double> max_{0.0};
};

/** One histogram in a MetricsSnapshot, in the act.metrics.v2 shape. */
struct HistogramSnapshot
{
    std::string name;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    /** Finite bucket upper bounds, ascending. */
    std::vector<double> bounds;
    /** Per-bucket counts: bounds.size() + 1, the last one overflow. */
    std::vector<std::uint64_t> counts;
};

/** A point-in-time copy of every registered metric. */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<HistogramSnapshot> histograms;
};

/**
 * The process-wide registry. Metric objects are created on first
 * request for a name and live for the rest of the process; requesting
 * an existing name returns the same object (a histogram's bounds are
 * fixed by the first registration; an empty ladder selects the default
 * 1/2/5 microsecond ladder from 1 us to 10 s).
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    Counter &counter(std::string_view name);
    Histogram &histogram(std::string_view name,
                         std::vector<double> bucket_bounds = {});

    /** Every metric, each kind sorted by name. */
    MetricsSnapshot snapshot() const;

  private:
    MetricsRegistry();
    ~MetricsRegistry() = delete; // intentionally leaked

    struct Impl;
    Impl *impl_;
};

} // namespace act::util

#endif // ACT_UTIL_METRICS_H

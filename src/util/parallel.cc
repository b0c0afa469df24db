#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>

#include "util/env.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace act::util {

namespace {

std::atomic<std::size_t> g_thread_override{0};

std::size_t
autoThreadCount()
{
    // Parse ACT_THREADS once; the hardware count is the fallback (a
    // sentinel 0 from envInt means unset or invalid, both warned about
    // by the shared parser when the value is garbage).
    static const std::size_t resolved = [] {
        const std::int64_t parsed = envInt(
            "ACT_THREADS", 0, 1,
            std::numeric_limits<std::int64_t>::max());
        if (parsed >= 1)
            return static_cast<std::size_t>(parsed);
        const unsigned hardware = std::thread::hardware_concurrency();
        return static_cast<std::size_t>(hardware >= 1 ? hardware : 1);
    }();
    return resolved;
}

/** The bucket ladder of runChunks' two once-per-call percentages. */
std::vector<double>
percentBuckets()
{
    return {1, 2, 5, 10, 20, 30, 50, 75, 90, 100};
}

/** runChunks' observability instruments, registered once. Counters are
 *  always live; the histograms only fill while metrics are on
 *  (runChunks times chunks only when metrics or tracing are on). */
struct PoolInstruments
{
    Counter &jobs =
        MetricsRegistry::instance().counter("parallel.jobs");
    Counter &serial_jobs =
        MetricsRegistry::instance().counter("parallel.serial_jobs");
    Counter &chunks =
        MetricsRegistry::instance().counter("parallel.chunks");
    Histogram &chunk_us =
        MetricsRegistry::instance().histogram("parallel.chunk_us");
    Histogram &queue_wait_us = MetricsRegistry::instance().histogram(
        "parallel.queue_wait_us");
    Histogram &imbalance_pct = MetricsRegistry::instance().histogram(
        "parallel.imbalance_pct", percentBuckets());
    Histogram &utilization_pct = MetricsRegistry::instance().histogram(
        "parallel.worker_utilization_pct", percentBuckets());
};

PoolInstruments &
poolInstruments()
{
    static PoolInstruments *instruments = new PoolInstruments;
    return *instruments;
}

} // namespace

std::size_t
threadCount()
{
    const std::size_t override =
        g_thread_override.load(std::memory_order_relaxed);
    return override != 0 ? override : autoThreadCount();
}

void
setThreadCount(std::size_t count)
{
    g_thread_override.store(count, std::memory_order_relaxed);
}

std::vector<IndexRange>
staticChunks(std::size_t begin, std::size_t end, std::size_t grain)
{
    if (begin > end)
        panic("staticChunks() with begin ", begin, " > end ", end);
    const std::size_t total = end - begin;
    if (total == 0)
        return {};
    if (grain == 0) {
        // Automatic grain: a fixed fan-out as a function of the range
        // size only -- never of the thread count -- so that chunk
        // boundaries (and thus reduction order) are reproducible on
        // any machine and with any ACT_THREADS setting.
        constexpr std::size_t kAutoChunkTarget = 64;
        grain = std::max<std::size_t>(
            1, (total + kAutoChunkTarget - 1) / kAutoChunkTarget);
    }
    std::vector<IndexRange> chunks;
    chunks.reserve((total + grain - 1) / grain);
    for (std::size_t start = begin; start < end; start += grain)
        chunks.push_back({start, std::min(start + grain, end)});
    return chunks;
}

void
runChunks(const std::vector<IndexRange> &chunks,
          const std::function<void(std::size_t, IndexRange)> &body)
{
    if (chunks.empty())
        return;
    PoolInstruments &instruments = poolInstruments();
    instruments.jobs.add();
    instruments.chunks.add(chunks.size());
    const std::size_t workers = std::min(threadCount(), chunks.size());
    const bool serial = workers == 1;
    if (serial)
        instruments.serial_jobs.add();
    // Per-chunk timing -- queue wait (submission to chunk start), chunk
    // duration, end-of-job imbalance and worker utilization, plus one
    // trace span per chunk -- only while metrics or tracing are on, so
    // a plain run reads no clock.
    const bool timed = metricsEnabled() || traceEnabled();
    TraceSpan job_span("util.parallel",
                      serial ? "runChunks.serial" : "runChunks");
    const std::uint64_t submit_ns = timed ? detail::traceNowNs() : 0;
    std::vector<std::uint64_t> durations(timed ? chunks.size() : 0, 0);
    const auto run_chunk = [&](std::size_t chunk) {
        if (!timed) {
            body(chunk, chunks[chunk]);
            return;
        }
        const std::uint64_t start_ns = detail::traceNowNs();
        instruments.queue_wait_us.observe(
            static_cast<double>(start_ns - submit_ns) / 1000.0);
        {
            TraceSpan chunk_span("util.parallel",
                                 "chunk#" + std::to_string(chunk));
            body(chunk, chunks[chunk]);
        }
        const std::uint64_t duration = detail::traceNowNs() - start_ns;
        durations[chunk] = duration;
        instruments.chunk_us.observe(static_cast<double>(duration) /
                                     1000.0);
    };
    {
        // The calling thread and workers - 1 helpers (none when serial,
        // which then runs the chunks in index order) claim chunk indices
        // from one counter until none is left; the helpers join when
        // they go out of scope, so no thread outlives the call.
        std::atomic<std::size_t> next{0};
        const auto drain = [&] {
            for (std::size_t chunk = next.fetch_add(1);
                 chunk < chunks.size(); chunk = next.fetch_add(1))
                run_chunk(chunk);
        };
        std::vector<std::jthread> helpers;
        helpers.reserve(workers - 1);
        for (std::size_t helper = 1; helper < workers; ++helper)
            helpers.emplace_back(drain);
        drain();
    }
    if (!timed)
        return;

    const std::uint64_t wall_ns = detail::traceNowNs() - submit_ns;
    std::uint64_t busy_ns = 0;
    std::uint64_t slowest = 0;
    std::uint64_t fastest = durations[0];
    for (const std::uint64_t duration : durations) {
        busy_ns += duration;
        slowest = std::max(slowest, duration);
        fastest = std::min(fastest, duration);
    }
    if (slowest > 0) {
        instruments.imbalance_pct.observe(
            100.0 * static_cast<double>(slowest - fastest) /
            static_cast<double>(slowest));
    }
    if (wall_ns > 0) {
        instruments.utilization_pct.observe(
            100.0 * static_cast<double>(busy_ns) /
            (static_cast<double>(wall_ns) *
             static_cast<double>(workers)));
    }
}

} // namespace act::util

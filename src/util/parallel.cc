#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <thread>

#include "util/env.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace act::util {

namespace {

/** Set while the current thread is executing pool work -- as a
 *  worker or as the submitter draining its own job -- so nested
 *  parallel sections fall back to serial execution. */
thread_local bool tls_in_parallel_section = false;

/** Marks the current thread as inside a parallel section for its
 *  lifetime, restoring the previous value on exit. */
class ParallelSectionGuard
{
  public:
    ParallelSectionGuard() : previous_(tls_in_parallel_section)
    {
        tls_in_parallel_section = true;
    }
    ~ParallelSectionGuard() { tls_in_parallel_section = previous_; }
    ParallelSectionGuard(const ParallelSectionGuard &) = delete;
    ParallelSectionGuard &operator=(const ParallelSectionGuard &) = delete;

  private:
    bool previous_;
};

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

/** Pool observability instruments, registered once. Counters are
 *  always live; the histograms/gauge only fill while metrics are on
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
        "parallel.imbalance_pct",
        {1, 2, 5, 10, 20, 30, 50, 75, 90, 100});
    Gauge &utilization_pct = MetricsRegistry::instance().gauge(
        "parallel.worker_utilization_pct");
};

PoolInstruments &
poolInstruments()
{
    static PoolInstruments *instruments = new PoolInstruments;
    return *instruments;
}

/**
 * Lazily-started shared worker pool. Jobs are generation-stamped; the
 * submitting thread participates in draining the task counter, so a
 * pool with N workers executes a job on up to N + 1 threads.
 *
 * The pool is leaked, never destroyed: a fatal() inside a task calls
 * exit() on whichever thread it runs, and a destructor joining the
 * workers would then join that very thread (or, in a fork()ed child,
 * threads that no longer exist). Idle workers simply die with the
 * process.
 */
class ThreadPool
{
  public:
    static ThreadPool &
    instance()
    {
        static ThreadPool *pool = new ThreadPool;
        return *pool;
    }

    void
    run(std::size_t tasks,
        const std::function<void(std::size_t)> &task)
    {
        // One job at a time: concurrent submitters queue up here and
        // each runs its job to completion before the next starts.
        std::lock_guard<std::mutex> submission(submit_mutex_);
        std::unique_lock<std::mutex> lock(mutex_);
        // One helper per task beyond the one the caller runs itself.
        ensureWorkers(std::min(threadCount() - 1, tasks - 1));
        job_ = &task;
        task_count_ = tasks;
        completed_.store(0, std::memory_order_relaxed);
        const std::size_t generation = ++generation_;
        ticket_.store(ticketTag(generation),
                      std::memory_order_release);
        lock.unlock();
        work_ready_.notify_all();

        {
            // An inner parallel section run by this task must not
            // re-enter run(): submit_mutex_ is held.
            const ParallelSectionGuard in_section;
            drain(task, tasks, generation);
        }

        lock.lock();
        job_done_.wait(lock, [&] {
            return completed_.load(std::memory_order_acquire) ==
                   task_count_;
        });
        job_ = nullptr;
    }

  private:
    ThreadPool() = default;

    /** The generation tag in the high half of a ticket word. */
    static std::uint64_t
    ticketTag(std::size_t generation)
    {
        return (static_cast<std::uint64_t>(generation) & 0xffffffffu)
               << 32;
    }

    /**
     * Pull task indices until the job's tickets run dry. Tickets are
     * claimed by CAS on a (generation, index) word rather than a blind
     * fetch_add: a laggard thread still looping here when the next job
     * is published sees a generation mismatch and leaves, instead of
     * consuming one of the new job's indices and invoking the previous
     * job's task (a dangling reference to the old submitter's stack).
     */
    void
    drain(const std::function<void(std::size_t)> &task,
          std::size_t tasks, std::size_t generation)
    {
        const std::uint64_t tag = ticketTag(generation);
        std::uint64_t current = ticket_.load(std::memory_order_acquire);
        for (;;) {
            if ((current & ~std::uint64_t{0xffffffffu}) != tag)
                break;
            const std::size_t index =
                static_cast<std::size_t>(current & 0xffffffffu);
            if (index >= tasks)
                break;
            if (!ticket_.compare_exchange_weak(
                    current, current + 1, std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                continue;
            }
            task(index);
            finishOne(tasks);
            current = ticket_.load(std::memory_order_acquire);
        }
    }

    void
    finishOne(std::size_t tasks)
    {
        if (completed_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            tasks) {
            // Lock before notifying so the submitter cannot miss the
            // wakeup between its predicate check and its sleep.
            std::lock_guard<std::mutex> lock(mutex_);
            job_done_.notify_all();
        }
    }

    void
    ensureWorkers(std::size_t want)
    {
        while (workers_.size() < want)
            workers_.emplace_back([this] { workerLoop(); });
    }

    void
    workerLoop()
    {
        tls_in_parallel_section = true;
        std::size_t seen_generation = 0;
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            work_ready_.wait(
                lock, [&] { return generation_ != seen_generation; });
            seen_generation = generation_;
            // The submitter clears job_ once every task completed; a
            // worker that wakes after that has nothing left to drain.
            if (job_ == nullptr)
                continue;
            const std::function<void(std::size_t)> *task = job_;
            const std::size_t tasks = task_count_;
            lock.unlock();
            drain(*task, tasks, seen_generation);
            lock.lock();
        }
    }

    std::mutex submit_mutex_;
    std::mutex mutex_;
    std::condition_variable work_ready_;
    std::condition_variable job_done_;
    std::vector<std::thread> workers_;

    // Current job, guarded by mutex_ for publication and stamped by
    // generation_ so idle workers only pick it up once. The ticket
    // word is (generation << 32) | next-task-index; see drain().
    const std::function<void(std::size_t)> *job_ = nullptr;
    std::size_t task_count_ = 0;
    std::size_t generation_ = 0;
    std::atomic<std::uint64_t> ticket_{0};
    std::atomic<std::size_t> completed_{0};
};

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
    const bool serial = chunks.size() == 1 || threadCount() <= 1 ||
                        tls_in_parallel_section;
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
    if (serial) {
        for (std::size_t chunk = 0; chunk < chunks.size(); ++chunk)
            run_chunk(chunk);
    } else {
        ThreadPool::instance().run(chunks.size(), run_chunk);
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
    const std::size_t workers =
        serial ? 1 : std::min(threadCount(), chunks.size());
    if (wall_ns > 0) {
        instruments.utilization_pct.set(
            100.0 * static_cast<double>(busy_ns) /
            (static_cast<double>(wall_ns) *
             static_cast<double>(workers)));
    }
}

} // namespace act::util

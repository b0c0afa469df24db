/**
 * @file
 * Chrome trace-event JSON profiling hooks. Scoped `TRACE_SPAN(cat,
 * name)` RAII timers record complete ("ph":"X") events with per-thread
 * ids. The file written by
 * `flushTrace()` is a standard trace-event document
 * (`{"traceEvents":[...]}`) loadable in Perfetto / chrome://tracing and
 * parseable by the in-repo config JSON parser.
 *
 * Overhead contract: tracing is compiled in always but gated behind one
 * relaxed atomic flag -- with no trace file set, a TRACE_SPAN costs a
 * relaxed load and a branch (no clock read, no allocation). Enable with
 * `ACT_TRACE=<file>` in the environment, `--trace <file>` on the bench
 * binaries / CLI, or `util::setTraceFile(path)`.
 *
 * Events are buffered in memory and written on `flushTrace()`, at
 * `setTraceFile()` changes, and automatically at process exit (a
 * `fatal()` exit included). The programs rely on the exit write alone,
 * so a run writes its trace file, or warns that it cannot, once.
 */

#ifndef ACT_UTIL_TRACE_H
#define ACT_UTIL_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>

namespace act::util {

namespace detail {

extern std::atomic<bool> g_trace_enabled;

/** Nanoseconds on the steady clock since the process trace epoch. */
std::uint64_t traceNowNs();

/**
 * Wall-clock time of the process trace epoch (the instant event
 * timestamps count from), in microseconds since the Unix epoch. The
 * writer stamps it into every trace file as a `trace_epoch` metadata
 * event so `act trace-merge` can align traces from different
 * processes onto one timeline.
 */
std::uint64_t traceWallEpochUs();

void traceComplete(const char *category, std::string name,
                   std::uint64_t start_ns, std::uint64_t end_ns);

} // namespace detail

/** True when a trace file is set and events are being recorded. */
inline bool
traceEnabled()
{
    return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/**
 * Start recording to @p path (flushing and closing any previous file
 * first); an empty path flushes and disables recording.
 */
void setTraceFile(const std::string &path);

/** Write every buffered event to the current trace file. */
void flushTrace();

/**
 * RAII timer for one complete trace event. Captures the start time at
 * construction when tracing is enabled and records the event at
 * destruction (or an explicit `finish()`).
 */
class TraceSpan
{
  public:
    TraceSpan(const char *category, std::string name)
    {
        if (traceEnabled()) {
            category_ = category;
            name_ = std::move(name);
            start_ns_ = detail::traceNowNs();
            active_ = true;
        }
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    ~TraceSpan() { finish(); }

    /** Record the event now instead of at scope exit. */
    void
    finish()
    {
        if (!active_)
            return;
        active_ = false;
        detail::traceComplete(category_, std::move(name_), start_ns_,
                              detail::traceNowNs());
    }

  private:
    const char *category_ = nullptr;
    std::string name_;
    std::uint64_t start_ns_ = 0;
    bool active_ = false;
};

} // namespace act::util

#define ACT_TRACE_CONCAT2(a, b) a##b
#define ACT_TRACE_CONCAT(a, b) ACT_TRACE_CONCAT2(a, b)

/** Scoped span: TRACE_SPAN("core.embodied", "evaluate"); */
#define TRACE_SPAN(category, name)                                     \
    ::act::util::TraceSpan ACT_TRACE_CONCAT(act_trace_span_,           \
                                            __LINE__)(category, name)

#endif // ACT_UTIL_TRACE_H

#include "util/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <vector>

#include "util/logging.h"

namespace act::util {

namespace detail {

std::atomic<bool> g_trace_enabled{false};

} // namespace detail

namespace {

/** One buffered complete ("ph":"X") trace event; categories are
 *  string literals. */
struct TraceEvent
{
    const char *category = nullptr;
    std::string name;
    std::uint32_t tid = 0;
    std::uint64_t ts_ns = 0;
    std::uint64_t dur_ns = 0;
};

std::uint32_t
currentTid()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t tid =
        next.fetch_add(1, std::memory_order_relaxed);
    return tid;
}

/**
 * Global event buffer. A single mutex is fine here: events are span-
 * or chunk-granular (never per-sample), and the buffer is only touched
 * while tracing is enabled. Leaked on purpose so runChunks helper
 * threads still running when another thread's fatal() exits the
 * process can record during static destruction.
 */
class TraceCollector
{
  public:
    static TraceCollector &
    instance()
    {
        static TraceCollector *collector = new TraceCollector;
        return *collector;
    }

    void
    append(TraceEvent event)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        events_.push_back(std::move(event));
    }

    void
    setFile(const std::string &path)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!path_.empty())
            writeLocked();
        path_ = path;
        events_.clear();
        detail::g_trace_enabled.store(!path_.empty(),
                                      std::memory_order_relaxed);
        if (!path_.empty() && !atexit_registered_) {
            atexit_registered_ = true;
            std::atexit([] { flushTrace(); });
        }
    }

    void
    flush()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!path_.empty())
            writeLocked();
    }

  private:
    TraceCollector() = default;

    /** Escape for a JSON string body (quotes, backslash, control). */
    static void
    appendEscaped(std::string &out, const std::string &text)
    {
        for (const char c : text) {
            switch (c) {
              case '"':
                out += "\\\"";
                break;
              case '\\':
                out += "\\\\";
                break;
              case '\n':
                out += "\\n";
                break;
              case '\t':
                out += "\\t";
                break;
              case '\r':
                out += "\\r";
                break;
              default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buffer[8];
                    std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                                  static_cast<unsigned>(c));
                    out += buffer;
                } else {
                    out += c;
                }
            }
        }
    }

    /** Chrome "ts"/"dur" are microseconds; keep ns as the fraction. */
    static void
    appendMicros(std::string &out, std::uint64_t ns)
    {
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%llu.%03llu",
                      static_cast<unsigned long long>(ns / 1000),
                      static_cast<unsigned long long>(ns % 1000));
        out += buffer;
    }

    void
    writeLocked()
    {
        std::string body;
        body.reserve(events_.size() * 96 + 192);
        body += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
        // Wall-clock anchor for cross-process trace assembly: event
        // timestamps are steady-clock offsets from the process trace
        // epoch, and this metadata event records where that epoch sits
        // on the wall clock (viewers ignore unknown "M" names).
        body += "{\"name\":\"trace_epoch\",\"cat\":\"__metadata\","
                "\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,"
                "\"args\":{\"wall_epoch_us\":";
        body += std::to_string(detail::traceWallEpochUs());
        body += "}}";
        bool first = false;
        for (const TraceEvent &event : events_) {
            if (!first)
                body += ',';
            first = false;
            body += "{\"name\":\"";
            appendEscaped(body, event.name);
            body += "\",\"cat\":\"";
            appendEscaped(body, event.category);
            body += "\",\"ph\":\"X\",\"pid\":1,\"tid\":";
            body += std::to_string(event.tid);
            body += ",\"ts\":";
            appendMicros(body, event.ts_ns);
            body += ",\"dur\":";
            appendMicros(body, event.dur_ns);
            body += '}';
        }
        body += "]}\n";
        std::ofstream out(path_, std::ios::trunc);
        out << body;
        out.close();
        if (!out)
            warn("cannot write trace file '", path_, "'");
    }

    std::mutex mutex_;
    std::string path_;
    std::vector<TraceEvent> events_;
    bool atexit_registered_ = false;
};

/** Parse ACT_TRACE once at startup; an empty value warns. */
struct TraceEnvInit
{
    TraceEnvInit()
    {
        const char *env = std::getenv("ACT_TRACE");
        if (env == nullptr)
            return;
        if (*env == '\0') {
            warn("ignoring empty ACT_TRACE value "
                 "(expected a file path)");
            return;
        }
        setTraceFile(env);
    }
} g_trace_env_init;

} // namespace

namespace detail {

namespace {

/** The steady-clock trace epoch and its wall-clock position, captured
 *  together so the pair names one instant. */
struct TraceEpoch
{
    std::chrono::steady_clock::time_point steady;
    std::uint64_t wall_us;

    TraceEpoch()
        : steady(std::chrono::steady_clock::now()),
          wall_us(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::system_clock::now()
                      .time_since_epoch())
                  .count()))
    {}
};

const TraceEpoch &
traceEpoch()
{
    static const TraceEpoch epoch;
    return epoch;
}

} // namespace

std::uint64_t
traceNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - traceEpoch().steady)
            .count());
}

std::uint64_t
traceWallEpochUs()
{
    return traceEpoch().wall_us;
}

void
traceComplete(const char *category, std::string name,
              std::uint64_t start_ns, std::uint64_t end_ns)
{
    TraceEvent event;
    event.category = category;
    event.name = std::move(name);
    event.tid = currentTid();
    event.ts_ns = start_ns;
    event.dur_ns = end_ns - start_ns;
    TraceCollector::instance().append(std::move(event));
}

} // namespace detail

void
setTraceFile(const std::string &path)
{
    TraceCollector::instance().setFile(path);
}

void
flushTrace()
{
    TraceCollector::instance().flush();
}

} // namespace act::util

#include "obs/trace_merge.h"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "util/logging.h"

namespace act::obs {

using config::JsonArray;
using config::JsonObject;
using config::JsonValue;

namespace {

/**
 * The wall-clock position (µs since Unix epoch) of @p trace's
 * timestamp origin, read from its first trace_epoch metadata event;
 * empty when the file predates epoch stamping. Reads every field the
 * merge reads, so a trace that passes merges without a type error.
 * Throws config::JsonTypeError naming the bad field.
 */
std::optional<std::uint64_t>
readTrace(const JsonValue &trace)
{
    const JsonValue &events = trace.at("traceEvents");
    if (!events.isArray())
        config::badField("traceEvents", "an array of events", events);
    std::optional<std::uint64_t> epoch;
    for (const JsonValue &event : events.asArray()) {
        if (!event.isObject())
            continue;
        if (event.stringOr("name", "") != "trace_epoch") {
            config::number(event, "ts", 0.0);
        } else if (!epoch && event.contains("args")) {
            epoch = config::count(event.at("args"), "wall_epoch_us", 0);
        }
    }
    return epoch;
}

std::string
basenameOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

JsonValue
metadataEvent(const std::string &name, int pid, JsonObject args)
{
    JsonObject event;
    event["name"] = JsonValue(name);
    event["cat"] = JsonValue("__metadata");
    event["ph"] = JsonValue("M");
    event["pid"] = JsonValue(pid);
    event["tid"] = JsonValue(0);
    event["ts"] = JsonValue(0);
    event["args"] = JsonValue(std::move(args));
    return JsonValue(std::move(event));
}

} // namespace

JsonValue
mergeTraceDocs(const std::vector<JsonValue> &traces,
               const std::vector<std::string> &names)
{
    if (traces.size() != names.size())
        util::panic("mergeTraceDocs: ", traces.size(), " traces but ",
                    names.size(), " names");

    std::vector<std::uint64_t> epochs;
    std::vector<std::size_t> unanchored; // traces without trace_epoch
    epochs.reserve(traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i) {
        const std::optional<std::uint64_t> epoch = config::inContext(
            [&] { return readTrace(traces[i]); }, "trace '", names[i], "'");
        if (!epoch)
            unanchored.push_back(i);
        epochs.push_back(epoch.value_or(0));
    }
    const std::uint64_t min_epoch =
        epochs.empty()
            ? 0
            : *std::min_element(epochs.begin(), epochs.end());

    JsonArray merged;
    JsonObject epoch_args;
    epoch_args["wall_epoch_us"] =
        JsonValue(static_cast<double>(min_epoch));
    merged.push_back(
        metadataEvent("trace_epoch", 1, std::move(epoch_args)));

    for (std::size_t i = 0; i < traces.size(); ++i) {
        const int pid = static_cast<int>(i) + 1;
        JsonObject name_args;
        name_args["name"] = JsonValue(basenameOf(names[i]));
        merged.push_back(
            metadataEvent("process_name", pid, std::move(name_args)));

        // Epochs are close together in practice (shards of one run),
        // so the µs delta stays well inside double precision.
        const double delta_us =
            static_cast<double>(epochs[i] - min_epoch);
        for (const JsonValue &event :
             traces[i].at("traceEvents").asArray()) {
            if (!event.isObject())
                continue;
            // Per-file epoch anchors are consumed by the alignment; the
            // merged file carries a single fresh one.
            if (event.stringOr("name", "") == "trace_epoch")
                continue;
            JsonObject remapped = event.asObject();
            remapped["pid"] = JsonValue(pid);
            remapped["ts"] =
                JsonValue(config::number(event, "ts", 0.0) + delta_us);
            merged.emplace_back(std::move(remapped));
        }
    }
    // Warned only once every trace merged, so a bad trace's error is
    // the only diagnostic it produces.
    for (std::size_t i : unanchored) {
        util::warn("trace '", names[i],
                   "' has no trace_epoch metadata; aligning its start "
                   "with the earliest trace");
    }

    JsonObject doc;
    doc["displayTimeUnit"] = JsonValue("ns");
    doc["traceEvents"] = JsonValue(std::move(merged));
    return JsonValue(std::move(doc));
}

void
mergeTraceFiles(const std::string &out_path,
                const std::vector<std::string> &trace_paths)
{
    std::vector<JsonValue> traces;
    std::vector<std::string> names;
    traces.reserve(trace_paths.size());
    for (const std::string &path : trace_paths) {
        traces.push_back(
            config::loadJsonAs(path, "trace", [](JsonValue trace) {
                readTrace(trace);
                return trace;
            }));
        names.push_back(path);
    }
    config::saveJsonFile(out_path, mergeTraceDocs(traces, names));
}

} // namespace act::obs

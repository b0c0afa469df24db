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

/** The wall-clock position (µs since Unix epoch) of a trace file's
 *  timestamp origin, read from its trace_epoch metadata event; empty
 *  when the file predates epoch stamping. */
std::optional<std::uint64_t>
traceEpochOf(const JsonValue &trace)
{
    for (const JsonValue &event : trace.at("traceEvents").asArray()) {
        if (!event.isObject())
            continue;
        if (event.stringOr("name", "") != "trace_epoch")
            continue;
        if (!event.contains("args"))
            continue;
        const double epoch =
            event.at("args").numberOr("wall_epoch_us", 0.0);
        return static_cast<std::uint64_t>(epoch);
    }
    return std::nullopt;
}

std::string
basenameOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

/** Run @p body for the trace named @p name, turning a mistyped field
 *  (a JsonTypeError) into a fatal that names the trace. */
template <typename Body>
auto
forTrace(const std::string &name, Body body)
{
    try {
        return body();
    } catch (const config::JsonTypeError &error) {
        util::fatal("bad trace '", name, "': ", error.what());
    }
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
        if (!traces[i].isObject() ||
            !traces[i].contains("traceEvents") ||
            !traces[i].at("traceEvents").isArray()) {
            util::fatal("'", names[i],
                        "' is not a Chrome trace document "
                        "(no traceEvents array)");
        }
        const std::optional<std::uint64_t> epoch =
            forTrace(names[i], [&] { return traceEpochOf(traces[i]); });
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
        forTrace(names[i], [&] {
            for (const JsonValue &event :
                 traces[i].at("traceEvents").asArray()) {
                if (!event.isObject())
                    continue;
                // Per-file epoch anchors are consumed by the
                // alignment; the merged file carries a single fresh
                // one.
                if (event.stringOr("name", "") == "trace_epoch")
                    continue;
                JsonObject remapped = event.asObject();
                remapped["pid"] = JsonValue(pid);
                remapped["ts"] = JsonValue(
                    event.numberOr("ts", 0.0) + delta_us);
                merged.push_back(JsonValue(std::move(remapped)));
            }
        });
    }
    // Warned only once every trace merged, so a bad trace's fatal is
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
        try {
            traces.push_back(config::loadJsonFile(path));
        } catch (const config::JsonParseError &error) {
            util::fatal("failed to parse trace '", path, "': ",
                        error.what());
        }
        names.push_back(path);
    }
    config::saveJsonFile(out_path, mergeTraceDocs(traces, names));
}

} // namespace act::obs

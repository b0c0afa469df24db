#include "obs/heartbeat.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/logging.h"
#include "util/strings.h"
#include "util/table.h"

#if defined(__linux__)
#include <unistd.h>
#endif

namespace act::obs {

using config::JsonObject;
using config::JsonValue;

const char *const kHeartbeatFormat = "act.heartbeat.v1";
const char *const kHeartbeatSuffix = ".heartbeat.json";

JsonValue
toJson(const Heartbeat &heartbeat)
{
    JsonObject object;
    object["format"] = JsonValue(kHeartbeatFormat);
    object["domain"] = JsonValue(heartbeat.domain);
    object["shard_index"] =
        JsonValue(static_cast<double>(heartbeat.shard_index));
    object["shard_count"] =
        JsonValue(static_cast<double>(heartbeat.shard_count));
    object["items_done"] =
        JsonValue(static_cast<double>(heartbeat.items_done));
    object["items_total"] =
        JsonValue(static_cast<double>(heartbeat.items_total));
    object["chunks_done"] =
        JsonValue(static_cast<double>(heartbeat.chunks_done));
    object["chunks_total"] =
        JsonValue(static_cast<double>(heartbeat.chunks_total));
    object["items_per_sec"] = JsonValue(heartbeat.items_per_sec);
    object["rss_mb"] = JsonValue(heartbeat.rss_mb);
    object["start_wall_s"] = JsonValue(heartbeat.start_wall_s);
    object["update_wall_s"] = JsonValue(heartbeat.update_wall_s);
    object["done"] = JsonValue(heartbeat.done);
    return JsonValue(std::move(object));
}

Heartbeat
heartbeatFromJson(const JsonValue &value)
{
    const config::Choice<bool> formats[] = {{kHeartbeatFormat, true}};
    config::choice(value, "format", formats);
    Heartbeat heartbeat;
    heartbeat.domain = value.stringOr("domain", "");
    heartbeat.shard_index = config::count(value, "shard_index", 0);
    heartbeat.shard_count = config::count(value, "shard_count", 1);
    heartbeat.items_done = config::count(value, "items_done", 0);
    heartbeat.items_total = config::count(value, "items_total", 0);
    heartbeat.chunks_done = config::count(value, "chunks_done", 0);
    heartbeat.chunks_total = config::count(value, "chunks_total", 0);
    heartbeat.items_per_sec = config::number(value, "items_per_sec", 0.0);
    heartbeat.rss_mb = config::number(value, "rss_mb", 0.0);
    heartbeat.start_wall_s = config::number(value, "start_wall_s", 0.0);
    heartbeat.update_wall_s = config::number(value, "update_wall_s", 0.0);
    heartbeat.done = value.contains("done") && value.at("done").asBool();
    return heartbeat;
}

double
wallClockSeconds()
{
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::system_clock::now()
                       .time_since_epoch())
                   .count()) /
           1e6;
}

double
processRssMb()
{
#if defined(__linux__)
    // /proc/self/statm: size resident shared text lib data dt (pages).
    std::ifstream statm("/proc/self/statm");
    if (!statm)
        return 0.0;
    long long size_pages = 0;
    long long resident_pages = 0;
    statm >> size_pages >> resident_pages;
    if (!statm)
        return 0.0;
    const long page_bytes = sysconf(_SC_PAGESIZE);
    if (page_bytes <= 0)
        return 0.0;
    return static_cast<double>(resident_pages) *
           static_cast<double>(page_bytes) / (1024.0 * 1024.0);
#else
    return 0.0;
#endif
}

std::string
heartbeatPathFor(const std::string &partial_path)
{
    const std::string json_suffix = ".json";
    if (partial_path.size() > json_suffix.size() &&
        partial_path.compare(partial_path.size() - json_suffix.size(),
                             json_suffix.size(), json_suffix) == 0) {
        return partial_path.substr(0, partial_path.size() -
                                          json_suffix.size()) +
               kHeartbeatSuffix;
    }
    return partial_path + kHeartbeatSuffix;
}

namespace {

std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

HeartbeatWriter::HeartbeatWriter(std::string path, double interval_s)
    : path_(std::move(path)),
      interval_ns_(static_cast<std::uint64_t>(
          std::max(0.0, interval_s) * 1e9))
{}

void
HeartbeatWriter::beat(const Heartbeat &heartbeat, bool force)
{
    const std::uint64_t now = steadyNowNs();
    if (!force &&
        now - last_write_ns_.load(std::memory_order_relaxed) <
            interval_ns_) {
        return;
    }
    // One writer at a time; a contended non-forced beat just skips --
    // another thread is already writing a fresher document.
    std::unique_lock<std::mutex> lock(write_mutex_, std::defer_lock);
    if (force) {
        lock.lock();
    } else if (!lock.try_lock()) {
        return;
    }
    if (!force &&
        now - last_write_ns_.load(std::memory_order_relaxed) <
            interval_ns_) {
        return; // another thread wrote while we waited
    }
    // Atomic temp + rename: a reader never sees a torn document. A
    // failed write warns and keeps the sweep running -- heartbeats are
    // telemetry, never load-bearing.
    const std::string temp = path_ + ".tmp";
    {
        std::ofstream out(temp, std::ios::trunc);
        if (!out) {
            util::warn("cannot write heartbeat file '", temp, "'");
            return;
        }
        out << toJson(heartbeat).dump(2) << '\n';
        if (!out) {
            util::warn("short write to heartbeat file '", temp, "'");
            return;
        }
    }
    if (std::rename(temp.c_str(), path_.c_str()) != 0) {
        std::remove(temp.c_str());
        util::warn("cannot rename heartbeat file into place at '",
                   path_, "'");
        return;
    }
    last_write_ns_.store(steadyNowNs(), std::memory_order_relaxed);
}

std::vector<std::pair<std::string, Heartbeat>>
loadHeartbeatDirectory(const std::string &directory)
{
    namespace fs = std::filesystem;
    std::error_code error;
    fs::directory_iterator it(directory, error);
    if (error)
        util::fatal("cannot read directory '", directory, "': ",
                    error.message());

    std::vector<std::string> paths;
    for (const fs::directory_entry &entry : it) {
        const std::string name = entry.path().filename().string();
        const std::string suffix = kHeartbeatSuffix;
        if (name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
            paths.push_back(entry.path().string());
        }
    }
    std::sort(paths.begin(), paths.end());

    std::vector<std::pair<std::string, Heartbeat>> heartbeats;
    for (const std::string &path : paths) {
        std::ifstream in(path);
        if (!in) {
            util::warn("skipping unreadable heartbeat file '", path,
                       "'");
            continue;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        try {
            heartbeats.emplace_back(
                path, heartbeatFromJson(JsonValue::parse(buffer.str())));
        } catch (const config::JsonParseError &parse_error) {
            util::warn("skipping unparseable heartbeat file '", path,
                       "': ", parse_error.what());
        } catch (const config::JsonTypeError &type_error) {
            util::warn("skipping unparseable heartbeat file '", path,
                       "': ", type_error.what());
        }
    }
    return heartbeats;
}

namespace {

std::string
progressBar(double fraction, int width)
{
    const double clamped = std::clamp(fraction, 0.0, 1.0);
    const int filled =
        static_cast<int>(clamped * static_cast<double>(width) + 0.5);
    std::string bar = "[";
    for (int i = 0; i < width; ++i)
        bar += i < filled ? '#' : '.';
    bar += "] " + util::formatFixed(clamped * 100.0, 1) + "%";
    return bar;
}

/** Median of an unsorted (copied) sample; 0 when empty. */
double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return values[mid];
    return 0.5 * (values[mid - 1] + values[mid]);
}

} // namespace

std::string
renderFleetTable(
    const std::vector<std::pair<std::string, Heartbeat>> &heartbeats,
    double now_wall_s, double stale_after_s)
{
    enum class State { Running, Done, Dead, Straggler };

    std::vector<State> states(heartbeats.size(), State::Running);
    std::vector<double> live_fractions;
    for (std::size_t i = 0; i < heartbeats.size(); ++i) {
        const Heartbeat &heartbeat = heartbeats[i].second;
        if (heartbeat.done) {
            states[i] = State::Done;
        } else if (now_wall_s - heartbeat.update_wall_s >
                   stale_after_s) {
            states[i] = State::Dead;
        } else {
            live_fractions.push_back(heartbeat.fractionDone());
        }
    }
    // A live shard far behind its peers is a straggler: less than
    // half the live median progress (needs at least two live shards
    // for "behind the others" to mean anything).
    const double live_median = median(live_fractions);
    if (live_fractions.size() >= 2) {
        for (std::size_t i = 0; i < heartbeats.size(); ++i) {
            if (states[i] == State::Running &&
                heartbeats[i].second.fractionDone() <
                    0.5 * live_median) {
                states[i] = State::Straggler;
            }
        }
    }

    util::Table table({"Shard", "Progress", "Items", "Rate/s", "ETA",
                       "RSS MB", "Age", "State"});
    std::uint64_t total_done = 0;
    std::uint64_t total_items = 0;
    std::size_t done_count = 0;
    std::size_t dead_count = 0;
    for (std::size_t i = 0; i < heartbeats.size(); ++i) {
        const Heartbeat &heartbeat = heartbeats[i].second;
        total_done += heartbeat.items_done;
        total_items += heartbeat.items_total;

        std::string eta = "-";
        if (!heartbeat.done && heartbeat.items_per_sec > 0.0 &&
            states[i] != State::Dead) {
            const double remaining = static_cast<double>(
                heartbeat.items_total - std::min(heartbeat.items_done,
                                                 heartbeat.items_total));
            eta = util::formatFixed(remaining / heartbeat.items_per_sec,
                                    1) +
                  "s";
        }
        std::string state;
        switch (states[i]) {
          case State::Running:
            state = "running";
            break;
          case State::Done:
            state = "done";
            ++done_count;
            break;
          case State::Dead:
            state = "DEAD";
            ++dead_count;
            break;
          case State::Straggler:
            state = "straggler";
            break;
        }
        table.addRow(
            {std::to_string(heartbeat.shard_index) + "/" +
                 std::to_string(heartbeat.shard_count),
             progressBar(heartbeat.fractionDone(), 10),
             std::to_string(heartbeat.items_done) + "/" +
                 std::to_string(heartbeat.items_total),
             heartbeat.items_per_sec > 0.0
                 ? util::formatSig(heartbeat.items_per_sec, 4)
                 : "-",
             eta, util::formatFixed(heartbeat.rss_mb, 1),
             util::formatFixed(
                 std::max(0.0, now_wall_s - heartbeat.update_wall_s),
                 1) +
                 "s",
             state});
    }

    std::string out = table.render();
    const double fleet_fraction =
        total_items == 0 ? 0.0
                         : static_cast<double>(total_done) /
                               static_cast<double>(total_items);
    out += "fleet: " + std::to_string(total_done) + "/" +
           std::to_string(total_items) + " items (" +
           util::formatFixed(fleet_fraction * 100.0, 1) + "%), " +
           std::to_string(done_count) + " done, " +
           std::to_string(heartbeats.size() - done_count - dead_count) +
           " live, " + std::to_string(dead_count) + " dead\n";
    return out;
}

} // namespace act::obs

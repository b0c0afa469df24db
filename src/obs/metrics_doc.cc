#include "obs/metrics_doc.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>

#include "util/logging.h"
#include "util/strings.h"
#include "util/table.h"

namespace act::obs {

using config::JsonArray;
using config::JsonObject;
using config::JsonValue;

const char *const kMetricsFormat = "act.metrics.v2";

namespace {

/** Numeric rendering for exposition output: integers stay integral,
 *  everything else gets enough digits to be faithful. */
std::string
formatNumber(double value)
{
    char buffer[64];
    if (value == std::floor(value) && std::abs(value) < 1e15) {
        std::snprintf(buffer, sizeof(buffer), "%.0f", value);
    } else {
        std::snprintf(buffer, sizeof(buffer), "%.10g", value);
    }
    return buffer;
}

/** Prometheus metric name: `act_` prefix, [a-zA-Z0-9_:] body. */
std::string
promName(const std::string &name)
{
    std::string out = "act_";
    for (const char c : name) {
        const bool keep = (c >= 'a' && c <= 'z') ||
                          (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '_' ||
                          c == ':';
        out += keep ? c : '_';
    }
    return out;
}

/** @p doc's @p key section: an object, empty when absent. */
const JsonObject &
requireObject(const JsonValue &doc, const char *key)
{
    static const JsonObject empty;
    if (!doc.contains(key))
        return empty;
    const JsonValue &value = doc.at(key);
    if (!value.isObject())
        config::badField(key, "an object", value);
    return value.asObject();
}

/** Throws config::JsonTypeError naming the first field of @p doc that
 *  breaks the act.metrics.v2 shape. */
void
checkMetricsDoc(const JsonValue &doc)
{
    const config::Choice<bool> formats[] = {{kMetricsFormat, true}};
    config::choice(doc, "format", formats);
    const JsonObject &counters = requireObject(doc, "counters");
    config::inContext(
        [&] {
            for (const auto &counter : counters)
                config::count(doc.at("counters"), counter.first);
        },
        "counters");
    for (const auto &[name, value] : requireObject(doc, "histograms")) {
        config::inContext(
            [&] {
                const std::vector<double> bounds =
                    config::numbers(value, "bounds");
                if (!std::is_sorted(bounds.begin(), bounds.end()))
                    config::badField("bounds", "ascending",
                                     value.at("bounds"));
                if (config::counts(value, "counts").size() !=
                    bounds.size() + 1) {
                    config::badField(
                        "counts",
                        "an array of " +
                            std::to_string(bounds.size() + 1) +
                            " bucket counts (bounds + overflow)",
                        value.at("counts"));
                }
                config::count(value, "count");
                for (const char *key : {"sum", "min", "max"})
                    config::number(value, key);
            },
            "histogram '", name, "'");
    }
}

/** Working form of one histogram while merging. */
struct HistogramAccumulator
{
    std::vector<double> bounds;
    std::vector<double> counts;
    double count = 0.0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
};

JsonValue
histogramToJson(const HistogramAccumulator &histogram)
{
    JsonObject object;
    JsonArray bounds;
    bounds.reserve(histogram.bounds.size());
    for (const double bound : histogram.bounds)
        bounds.emplace_back(bound);
    JsonArray counts;
    counts.reserve(histogram.counts.size());
    for (const double count : histogram.counts)
        counts.emplace_back(count);
    object["bounds"] = JsonValue(std::move(bounds));
    object["counts"] = JsonValue(std::move(counts));
    object["count"] = JsonValue(histogram.count);
    object["sum"] = JsonValue(histogram.sum);
    object["min"] = JsonValue(histogram.min);
    object["max"] = JsonValue(histogram.max);
    return JsonValue(std::move(object));
}

/**
 * Quantile @p q of a validated document histogram, by linear
 * interpolation inside the bucket that holds the requested rank; the
 * observed min/max stand in for the open ends of the first and
 * overflow buckets. 0 when empty.
 */
double
histogramQuantile(const JsonValue &histogram, double q)
{
    const std::vector<double> bounds =
        config::numbers(histogram, "bounds");
    const std::vector<double> counts = config::numbers(histogram, "counts");
    const double min = histogram.at("min").asNumber();
    const double max = histogram.at("max").asNumber();
    double total = 0.0;
    for (const double count : counts)
        total += count;
    if (total == 0.0)
        return 0.0;
    const double rank = q * total;
    double cumulative = 0.0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0.0)
            continue;
        const double before = cumulative;
        cumulative += counts[i];
        if (cumulative < rank)
            continue;
        const double lo = i == 0 ? min : bounds[i - 1];
        const double hi = i < bounds.size() ? bounds[i] : max;
        const double fraction =
            std::clamp((rank - before) / counts[i], 0.0, 1.0);
        return std::clamp(lo + (hi - lo) * fraction, std::min(min, hi),
                          max);
    }
    return max;
}

} // namespace

JsonValue
metricsToJson(const util::MetricsSnapshot &snapshot)
{
    JsonObject counters;
    for (const auto &[name, value] : snapshot.counters)
        counters[name] = JsonValue(static_cast<double>(value));

    JsonObject histograms;
    for (const util::HistogramSnapshot &histogram :
         snapshot.histograms) {
        HistogramAccumulator accumulator;
        accumulator.bounds = histogram.bounds;
        for (const std::uint64_t count : histogram.counts)
            accumulator.counts.push_back(static_cast<double>(count));
        accumulator.count = static_cast<double>(histogram.count);
        accumulator.sum = histogram.sum;
        accumulator.min = histogram.min;
        accumulator.max = histogram.max;
        histograms[histogram.name] = histogramToJson(accumulator);
    }

    JsonObject document;
    document["format"] = JsonValue(kMetricsFormat);
    document["counters"] = JsonValue(std::move(counters));
    document["histograms"] = JsonValue(std::move(histograms));
    return JsonValue(std::move(document));
}

const JsonValue &
validateMetricsDoc(const JsonValue &doc, const std::string &origin)
{
    config::readJsonAs(origin.empty() ? std::string("metrics document")
                                      : "metrics in " + origin,
                       [&] { checkMetricsDoc(doc); });
    return doc;
}

JsonValue
mergeMetricsDocs(const std::vector<JsonValue> &docs)
{
    std::map<std::string, double> counters;
    std::map<std::string, HistogramAccumulator> histograms;

    for (const JsonValue &doc : docs) {
        validateMetricsDoc(doc);
        for (const auto &[name, value] : requireObject(doc, "counters"))
            counters[name] += value.asNumber();
        for (const auto &[name, value] :
             requireObject(doc, "histograms")) {
            const std::vector<double> bounds =
                config::numbers(value, "bounds");
            const std::vector<double> counts =
                config::numbers(value, "counts");
            const double count = value.at("count").asNumber();
            auto found = histograms.find(name);
            if (found == histograms.end()) {
                HistogramAccumulator accumulator;
                accumulator.bounds = bounds;
                accumulator.counts = counts;
                accumulator.count = count;
                accumulator.sum = value.at("sum").asNumber();
                accumulator.min = value.at("min").asNumber();
                accumulator.max = value.at("max").asNumber();
                histograms.emplace(name, std::move(accumulator));
                continue;
            }
            HistogramAccumulator &merged = found->second;
            // Bucket-wise merging is only meaningful when every shard
            // used the same ladder; refuse to misbin rather than
            // produce quietly wrong quantiles.
            if (merged.bounds != bounds)
                util::fatal("cannot merge metrics: histogram '", name,
                            "' has incompatible bucket bounds across "
                            "snapshots");
            for (std::size_t i = 0; i < counts.size(); ++i)
                merged.counts[i] += counts[i];
            if (count > 0.0) {
                if (merged.count == 0.0) {
                    merged.min = value.at("min").asNumber();
                    merged.max = value.at("max").asNumber();
                } else {
                    merged.min = std::min(merged.min,
                                          value.at("min").asNumber());
                    merged.max = std::max(merged.max,
                                          value.at("max").asNumber());
                }
            }
            merged.count += count;
            merged.sum += value.at("sum").asNumber();
        }
    }

    JsonObject counters_json;
    for (const auto &[name, value] : counters)
        counters_json[name] = JsonValue(value);
    JsonObject histograms_json;
    for (const auto &[name, histogram] : histograms)
        histograms_json[name] = histogramToJson(histogram);

    JsonObject document;
    document["format"] = JsonValue(kMetricsFormat);
    document["counters"] = JsonValue(std::move(counters_json));
    document["histograms"] = JsonValue(std::move(histograms_json));
    return JsonValue(std::move(document));
}

std::string
renderPrometheus(const JsonValue &doc)
{
    validateMetricsDoc(doc);
    std::string out;

    for (const auto &[name, value] : requireObject(doc, "counters")) {
        const std::string metric = promName(name);
        out += "# TYPE " + metric + " counter\n";
        out += metric + " " + formatNumber(value.asNumber()) + "\n";
    }

    for (const auto &[name, value] : requireObject(doc, "histograms")) {
        const std::vector<double> bounds =
            config::numbers(value, "bounds");
        const std::vector<double> counts =
            config::numbers(value, "counts");
        const std::string metric = promName(name);
        out += "# TYPE " + metric + " histogram\n";
        double cumulative = 0.0;
        for (std::size_t i = 0; i < counts.size(); ++i) {
            cumulative += counts[i];
            const std::string le = i < bounds.size()
                                       ? formatNumber(bounds[i])
                                       : std::string("+Inf");
            out += metric + "_bucket{le=\"" + le + "\"} " +
                   formatNumber(cumulative) + "\n";
        }
        out += metric + "_sum " +
               formatNumber(value.at("sum").asNumber()) + "\n";
        out += metric + "_count " +
               formatNumber(value.at("count").asNumber()) + "\n";
    }
    return out;
}

std::string
renderMetricsDocTable(const JsonValue &doc)
{
    validateMetricsDoc(doc);
    const auto sig = [](double value) { return util::formatSig(value, 4); };
    util::Table table({"Metric", "Type", "Count", "Mean", "P50", "P95",
                       "Min", "Max"});
    for (const auto &[name, value] : requireObject(doc, "counters")) {
        table.addRow({name, "counter", formatNumber(value.asNumber()),
                      "", "", "", "", ""});
    }
    for (const auto &[name, value] : requireObject(doc, "histograms")) {
        const double count = value.at("count").asNumber();
        const double mean =
            count > 0.0 ? value.at("sum").asNumber() / count : 0.0;
        table.addRow({name, "histogram", formatNumber(count), sig(mean),
                      sig(histogramQuantile(value, 0.50)),
                      sig(histogramQuantile(value, 0.95)),
                      sig(value.at("min").asNumber()),
                      sig(value.at("max").asNumber())});
    }
    return table.render();
}

} // namespace act::obs

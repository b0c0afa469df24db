/**
 * @file
 * Tests for the act.metrics.v2 document (obs/metrics_doc): snapshot
 * serialization, the merge semantics (counters sum, histograms merge
 * bucket-wise), schema rejection, and the
 * Prometheus rendering. The MetricsFileValidation test doubles as a
 * validator: set `ACT_METRICS_VALIDATE=<file>` to check an externally
 * produced document. ctest act_cli_telemetry
 * (tools/cli_telemetry.cmake) sets it on an `act merge --metrics-out`
 * of three metered shards.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "config/json.h"
#include "obs/metrics_doc.h"
#include "util/metrics.h"

namespace {

using namespace act;

config::JsonValue
parseDoc(const std::string &text)
{
    return config::JsonValue::parse(text);
}

/** A synthetic one-process snapshot document. */
config::JsonValue
snapshotDoc(double items, double low_bucket, double high_bucket)
{
    config::JsonObject counters;
    counters["sweep.items"] = config::JsonValue(items);

    config::JsonObject histogram;
    histogram["bounds"] = config::JsonValue(config::JsonArray{
        config::JsonValue(10.0), config::JsonValue(100.0)});
    histogram["counts"] = config::JsonValue(config::JsonArray{
        config::JsonValue(low_bucket), config::JsonValue(high_bucket),
        config::JsonValue(0.0)});
    histogram["count"] =
        config::JsonValue(low_bucket + high_bucket);
    histogram["sum"] =
        config::JsonValue(5.0 * low_bucket + 50.0 * high_bucket);
    histogram["min"] = config::JsonValue(low_bucket > 0.0 ? 5.0 : 50.0);
    histogram["max"] =
        config::JsonValue(high_bucket > 0.0 ? 50.0 : 5.0);
    config::JsonObject histograms;
    histograms["chunk_us"] = config::JsonValue(std::move(histogram));

    config::JsonObject doc;
    doc["format"] = config::JsonValue(obs::kMetricsFormat);
    doc["counters"] = config::JsonValue(std::move(counters));
    doc["histograms"] = config::JsonValue(std::move(histograms));
    return config::JsonValue(std::move(doc));
}

TEST(MetricsDocTest, SnapshotSerializesAndValidates)
{
    util::setMetricsEnabled(true);
    auto &registry = util::MetricsRegistry::instance();
    registry.counter("merge_test.count").add(7);
    auto &histogram =
        registry.histogram("merge_test.hist", {1.0, 10.0});
    histogram.observe(0.5);
    histogram.observe(5.0);
    histogram.observe(50.0);
    util::setMetricsEnabled(false);
    // With metrics off a histogram records nothing at all.
    histogram.observe(7.0);

    const config::JsonValue doc =
        obs::metricsToJson(registry.snapshot());
    obs::validateMetricsDoc(doc);
    // Every histogram's count equals the sum of its bucket counts, as
    // Prometheus requires of `_count` and the `+Inf` bucket.
    for (const auto &[name, entry] : doc.at("histograms").asObject()) {
        double buckets = 0.0;
        for (const config::JsonValue &count :
             entry.at("counts").asArray())
            buckets += count.asNumber();
        EXPECT_EQ(entry.at("count").asNumber(), buckets) << name;
    }
    EXPECT_EQ(doc.stringOr("format", ""), obs::kMetricsFormat);
    EXPECT_EQ(doc.at("counters").at("merge_test.count").asNumber(),
              7.0);

    const config::JsonValue &hist =
        doc.at("histograms").at("merge_test.hist");
    // Two finite bounds serialize; the +inf overflow bucket is the
    // extra counts entry, never an (unserializable) infinite bound.
    EXPECT_EQ(hist.at("bounds").asArray().size(), 2u);
    EXPECT_EQ(hist.at("counts").asArray().size(), 3u);
    EXPECT_EQ(hist.at("count").asNumber(), 3.0);
    EXPECT_EQ(hist.at("min").asNumber(), 0.5);
    EXPECT_EQ(hist.at("max").asNumber(), 50.0);

    // Serialization must be deterministic for byte-compare workflows.
    EXPECT_EQ(doc.dump(),
              obs::metricsToJson(registry.snapshot()).dump());
}

TEST(MetricsDocTest, MergeOfShardsEqualsOneProcessTotals)
{
    // Three "shards" whose work sums to one known single-process run.
    const std::vector<config::JsonValue> shards = {
        snapshotDoc(4000, 3, 1),
        snapshotDoc(4000, 2, 0),
        snapshotDoc(2000, 0, 4),
    };
    const config::JsonValue merged = obs::mergeMetricsDocs(shards);
    obs::validateMetricsDoc(merged);

    // Counters sum exactly (doubles are exact for integral counts).
    EXPECT_EQ(merged.at("counters").at("sweep.items").asNumber(),
              10000.0);

    // Histograms merge bucket-wise and re-derive the statistics.
    const config::JsonValue &hist =
        merged.at("histograms").at("chunk_us");
    EXPECT_EQ(hist.at("counts").asArray()[0].asNumber(), 5.0);
    EXPECT_EQ(hist.at("counts").asArray()[1].asNumber(), 5.0);
    EXPECT_EQ(hist.at("count").asNumber(), 10.0);
    EXPECT_EQ(hist.at("sum").asNumber(), 5.0 * 5.0 + 50.0 * 5.0);
    EXPECT_EQ(hist.at("min").asNumber(), 5.0);
    EXPECT_EQ(hist.at("max").asNumber(), 50.0);
}

TEST(MetricsDocTest, MergingOneDocumentIsTheIdentity)
{
    const config::JsonValue doc = snapshotDoc(123, 2, 1);
    EXPECT_EQ(obs::mergeMetricsDocs({doc}).dump(), doc.dump());
}

TEST(MetricsDocTest, MergeToleratesEmptyAndAbsentSections)
{
    // No documents at all: an empty but valid document.
    const config::JsonValue empty = obs::mergeMetricsDocs({});
    obs::validateMetricsDoc(empty);
    EXPECT_TRUE(empty.at("counters").asObject().empty());

    // A format-only document (absent sections) merges cleanly with a
    // full one.
    const config::JsonValue minimal =
        parseDoc(R"({"format": "act.metrics.v2"})");
    const config::JsonValue merged =
        obs::mergeMetricsDocs({minimal, snapshotDoc(10, 1, 0)});
    EXPECT_EQ(merged.at("counters").at("sweep.items").asNumber(),
              10.0);
}

TEST(MetricsDocDeathTest, RejectsIncompatibleHistogramBounds)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    config::JsonValue other = snapshotDoc(10, 1, 0);
    other.asObject()["histograms"]
        .asObject()["chunk_us"]
        .asObject()["bounds"] = config::JsonValue(config::JsonArray{
        config::JsonValue(10.0), config::JsonValue(999.0)});
    EXPECT_EXIT(
        obs::mergeMetricsDocs({snapshotDoc(10, 1, 0), other}),
        ::testing::ExitedWithCode(1), "incompatible bucket bounds");
}

TEST(MetricsDocDeathTest, RejectsWrongFormatAndBadShapes)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(obs::validateMetricsDoc(parseDoc("{}")),
                ::testing::ExitedWithCode(1),
                "bad metrics document: missing 'format'");
    EXPECT_EXIT(obs::validateMetricsDoc(parseDoc(R"({"format": "x"})")),
                ::testing::ExitedWithCode(1),
                "'format' must be one of 'act\\.metrics\\.v2' "
                "\\(got \"x\"\\)");
    // A v1 document, which could carry a third metric kind, is
    // refused as a whole rather than read without it.
    EXPECT_EXIT(obs::validateMetricsDoc(parseDoc(
                    R"({"format": "act.metrics.v1", "counters": {}})")),
                ::testing::ExitedWithCode(1),
                "'format' must be one of 'act\\.metrics\\.v2' "
                "\\(got \"act\\.metrics\\.v1\"\\)");
    EXPECT_EXIT(obs::validateMetricsDoc(parseDoc(
                    R"({"format": "act.metrics.v2",
                        "counters": {"x": -1}})")),
                ::testing::ExitedWithCode(1), "non-negative");
    // counts must be bounds + 1 (the overflow bucket).
    EXPECT_EXIT(obs::validateMetricsDoc(parseDoc(
                    R"({"format": "act.metrics.v2", "histograms":
                        {"h": {"bounds": [1, 2], "counts": [0, 0],
                               "count": 0, "sum": 0, "min": 0,
                               "max": 0}}})")),
                ::testing::ExitedWithCode(1), "bucket counts");
}

TEST(MetricsDocDeathTest, MissingRequiredFieldsAreFatal)
{
    // A fatal naming the field, not an uncaught JsonTypeError.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(obs::validateMetricsDoc(parseDoc(
                    R"({"format": "act.metrics.v2", "histograms":
                        {"h": {"counts": [0], "count": 0, "sum": 0,
                               "min": 0, "max": 0}}})")),
                ::testing::ExitedWithCode(1),
                "histogram 'h': missing 'bounds'");
    EXPECT_EXIT(obs::validateMetricsDoc(parseDoc(
                    R"({"format": "act.metrics.v2", "histograms":
                        {"h": {"bounds": [], "counts": [0],
                               "sum": 0, "min": 0, "max": 0}}})")),
                ::testing::ExitedWithCode(1),
                "histogram 'h': missing 'count'");
}

TEST(MetricsDocDeathTest, CountsMustBeNonNegativeIntegers)
{
    // Counts are summed by the merge, so a negative, fractional or
    // out-of-range one must be rejected, not merged.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto histogram = [](const std::string &counts,
                              const std::string &count) {
        return parseDoc(R"({"format": "act.metrics.v2", "histograms":
                            {"h": {"bounds": [1], "counts": )" +
                        counts + R"(, "count": )" + count +
                        R"(, "sum": 0, "min": 0, "max": 0}}})");
    };
    EXPECT_EXIT(obs::validateMetricsDoc(histogram("[1, -3]", "1")),
                ::testing::ExitedWithCode(1),
                "histogram 'h': 'counts\\[1\\]' must be a non-negative "
                "integer \\(got -3\\)");
    EXPECT_EXIT(obs::validateMetricsDoc(histogram("[0, 0]", "-1")),
                ::testing::ExitedWithCode(1),
                "histogram 'h': 'count' must be a non-negative integer "
                "\\(got -1\\)");
    EXPECT_EXIT(obs::validateMetricsDoc(histogram("[0.5, 0]", "0")),
                ::testing::ExitedWithCode(1),
                "histogram 'h': 'counts\\[0\\]' must be a non-negative "
                "integer \\(got 0\\.5\\)");
    EXPECT_EXIT(obs::validateMetricsDoc(parseDoc(
                    R"({"format": "act.metrics.v2",
                        "counters": {"x": 2.5}})")),
                ::testing::ExitedWithCode(1),
                "counters: 'x' must be a non-negative integer "
                "\\(got 2\\.5\\)");
    EXPECT_EXIT(obs::validateMetricsDoc(parseDoc(
                    R"({"format": "act.metrics.v2",
                        "counters": {"x": 1e30}})")),
                ::testing::ExitedWithCode(1),
                "counters: 'x' must be a non-negative integer "
                "\\(got 1e\\+30\\)");
}

TEST(MetricsDocDeathTest, FatalNamesTheOrigin)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(obs::validateMetricsDoc(
                    parseDoc(R"({"format": "act.metrics.v2",
                                 "counters": {"x": -1}})"),
                    "sweep partial 'part1.json'"),
                ::testing::ExitedWithCode(1),
                "fatal: bad metrics in sweep partial 'part1\\.json': "
                "counters: 'x' must be a non-negative integer");
}

TEST(MetricsDocTest, PrometheusRenderingIsWellFormed)
{
    const config::JsonValue merged = obs::mergeMetricsDocs(
        {snapshotDoc(4000, 3, 1), snapshotDoc(6000, 2, 0)});
    const std::string prom = obs::renderPrometheus(merged);

    EXPECT_NE(prom.find("# TYPE act_sweep_items counter\n"),
              std::string::npos);
    EXPECT_NE(prom.find("act_sweep_items 10000\n"), std::string::npos);
    // Histogram buckets are cumulative and end at +Inf == _count.
    EXPECT_NE(prom.find("act_chunk_us_bucket{le=\"10\"} 5\n"),
              std::string::npos);
    EXPECT_NE(prom.find("act_chunk_us_bucket{le=\"+Inf\"} 6\n"),
              std::string::npos);
    EXPECT_NE(prom.find("act_chunk_us_count 6\n"), std::string::npos);
}

/** The trimmed cells of every `| a | b |` line of a rendered table. */
std::vector<std::vector<std::string>>
tableRows(const std::string &table)
{
    std::vector<std::vector<std::string>> rows;
    std::istringstream lines(table);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] != '|')
            continue;
        std::vector<std::string> cells;
        std::istringstream fields(line.substr(1));
        std::string cell;
        while (std::getline(fields, cell, '|')) {
            const std::size_t first = cell.find_first_not_of(' ');
            const std::size_t last = cell.find_last_not_of(' ');
            cells.push_back(first == std::string::npos
                                ? std::string()
                                : cell.substr(first, last - first + 1));
        }
        rows.push_back(std::move(cells));
    }
    return rows;
}

TEST(MetricsDocTest, TableRenderingShowsMeans)
{
    const std::string table =
        obs::renderMetricsDocTable(snapshotDoc(100, 3, 1));
    EXPECT_NE(table.find("sweep.items"), std::string::npos);
    EXPECT_NE(table.find("histogram"), std::string::npos);
    // mean = (5*3 + 50*1) / 4 = 16.25
    EXPECT_NE(table.find("16.25"), std::string::npos);

    // Quantiles interpolate inside the bucket holding the rank; the
    // observed min/max close the first and overflow buckets.
    const std::vector<std::vector<std::string>> rows =
        tableRows(obs::renderMetricsDocTable(parseDoc(
            R"({"format": "act.metrics.v2", "histograms": {"h": {
                "bounds": [1, 10, 100], "counts": [2, 1, 1, 1],
                "count": 5, "sum": 598.5, "min": 0.5, "max": 500}}})")));
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0],
              (std::vector<std::string>{"Metric", "Type", "Count", "Mean",
                                        "P50", "P95", "Min", "Max"}));
    ASSERT_EQ(rows[1].size(), 8u);
    EXPECT_EQ(rows[1][0], "h");
    EXPECT_EQ(rows[1][2], "5");
    const double p50 = std::stod(rows[1][4]);
    EXPECT_GE(p50, 0.5);
    EXPECT_LE(p50, 10.0);
    const double p95 = std::stod(rows[1][5]);
    EXPECT_GE(p95, 90.0);
    EXPECT_LE(p95, 500.0);
}

/**
 * Validator: when ACT_METRICS_VALIDATE names a metrics document produced
 * by a real run (e.g. `act merge --metrics-out`), validate its schema
 * and require the sweep counters the engine always maintains.
 */
TEST(MetricsFileValidation, ExternalFile)
{
    const char *path = std::getenv("ACT_METRICS_VALIDATE");
    if (path == nullptr || *path == '\0')
        GTEST_SKIP() << "ACT_METRICS_VALIDATE not set";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const config::JsonValue doc =
        config::JsonValue::parse(buffer.str());
    obs::validateMetricsDoc(doc);
    EXPECT_GT(doc.at("counters").at("sweep.items").asNumber(), 0.0)
        << "expected the engine's sweep.items counter";
    EXPECT_GT(doc.at("counters").at("sweep.chunks").asNumber(), 0.0)
        << "expected the engine's sweep.chunks counter";
}

} // namespace

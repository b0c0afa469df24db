/**
 * @file
 * Trace-merge tests: per-process Chrome traces combine into one
 * timeline with pids remapped per source file, timestamps aligned on
 * the wall-clock epochs, per-file epoch anchors consumed, and
 * process_name labels added. The output must still satisfy the trace
 * validator in util_trace_test, which ctest act_cli_telemetry runs on
 * an `act trace-merge` output via ACT_TRACE_VALIDATE_MERGED.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "config/json.h"
#include "obs/trace_merge.h"

namespace {

using namespace act;

/** A minimal one-process trace: an epoch anchor plus one span. */
config::JsonValue
traceDoc(double epoch_us, double span_ts_us, const std::string &name)
{
    const std::string text = R"({
      "displayTimeUnit": "ns",
      "traceEvents": [
        {"name": "trace_epoch", "cat": "__metadata", "ph": "M",
         "pid": 1, "tid": 0, "ts": 0,
         "args": {"wall_epoch_us": )" +
                             std::to_string(epoch_us) + R"(}},
        {"name": ")" + name + R"(", "cat": "test", "ph": "X",
         "pid": 1, "tid": 1, "ts": )" +
                             std::to_string(span_ts_us) +
                             R"(, "dur": 5}
      ]
    })";
    return config::JsonValue::parse(text);
}

TEST(TraceMergeTest, AlignsEpochsAndRemapsPids)
{
    // Process B started 1000 us after process A.
    const std::vector<config::JsonValue> traces = {
        traceDoc(5'000'000, 10.0, "a_span"),
        traceDoc(5'001'000, 10.0, "b_span"),
    };
    const config::JsonValue merged = obs::mergeTraceDocs(
        traces, {"runs/a.trace.json", "runs/b.trace.json"});

    const config::JsonArray &events =
        merged.at("traceEvents").asArray();
    // 1 fresh epoch + 2 process_name labels + 2 spans; the per-file
    // epoch anchors are consumed by the alignment.
    ASSERT_EQ(events.size(), 5u);

    double a_ts = -1.0, b_ts = -1.0;
    std::uint64_t a_pid = 0, b_pid = 0;
    std::size_t epoch_events = 0;
    std::vector<std::string> process_names;
    for (const config::JsonValue &event : events) {
        const std::string name = event.at("name").asString();
        if (name == "trace_epoch") {
            ++epoch_events;
            // The merged epoch is the earliest input epoch.
            EXPECT_EQ(event.at("args").at("wall_epoch_us").asNumber(),
                      5'000'000.0);
        } else if (name == "process_name") {
            process_names.push_back(
                event.at("args").at("name").asString());
        } else if (name == "a_span") {
            a_ts = event.at("ts").asNumber();
            a_pid = config::count(event, "pid");
        } else if (name == "b_span") {
            b_ts = event.at("ts").asNumber();
            b_pid = config::count(event, "pid");
        }
    }
    EXPECT_EQ(epoch_events, 1u);
    // pids follow input order, 1-based; labels are basenames.
    EXPECT_EQ(a_pid, 1u);
    EXPECT_EQ(b_pid, 2u);
    ASSERT_EQ(process_names.size(), 2u);
    EXPECT_EQ(process_names[0], "a.trace.json");
    EXPECT_EQ(process_names[1], "b.trace.json");
    // A's span keeps its offset; B's shifts by the 1000 us epoch
    // delta so both sit on one wall-clock-aligned axis.
    EXPECT_EQ(a_ts, 10.0);
    EXPECT_EQ(b_ts, 1010.0);
}

TEST(TraceMergeTest, MissingEpochAlignsWithZeroDelta)
{
    config::JsonValue no_epoch = config::JsonValue::parse(R"({
      "traceEvents": [
        {"name": "s", "cat": "test", "ph": "X", "pid": 1, "tid": 1,
         "ts": 7, "dur": 1}
      ]
    })");
    const config::JsonValue merged =
        obs::mergeTraceDocs({no_epoch}, {"legacy.json"});
    for (const config::JsonValue &event :
         merged.at("traceEvents").asArray()) {
        if (event.at("name").asString() == "s") {
            EXPECT_EQ(event.at("ts").asNumber(), 7.0);
        }
    }
}

/** The message mergeTraceDocs() throws for @p trace named @p name. */
std::string
mergeError(const config::JsonValue &trace, const std::string &name)
{
    try {
        obs::mergeTraceDocs({trace}, {name});
    } catch (const config::JsonTypeError &error) {
        return error.what();
    }
    ADD_FAILURE() << "expected JsonTypeError for " << name;
    return "";
}

TEST(TraceMerge, RejectsNonTraceInputNamingTheField)
{
    EXPECT_EQ(mergeError(config::JsonValue::parse("{}"), "bad.json"),
              "trace 'bad.json': missing 'traceEvents'");
    // A mistyped event field names the trace and the field.
    EXPECT_EQ(mergeError(config::JsonValue::parse(
                             R"({"traceEvents": [{"ts": "x", "ph": 5}]})"),
                         "typed.json"),
              "trace 'typed.json': 'ts' must be a number (got \"x\")");
    // A negative epoch would wrap in the uint64 timeline.
    EXPECT_EQ(mergeError(config::JsonValue::parse(R"({"traceEvents": [
                             {"name": "trace_epoch", "ph": "M",
                              "args": {"wall_epoch_us": -5}}]})"),
                         "epoch.json"),
              "trace 'epoch.json': 'wall_epoch_us' must be a non-negative "
              "integer (got -5)");
}

} // namespace

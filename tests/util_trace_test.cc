/**
 * @file
 * Trace-writer tests: the emitted Chrome trace-event file parses with
 * the in-repo config JSON parser, events carry well-formed thread ids
 * and phases, and spans on one thread nest properly. The
 * TraceFileValidation tests double as validators of real traces: set
 * `ACT_TRACE_VALIDATE=<file>` and `ACT_TRACE_VALIDATE_MERGED=<file>`
 * to check externally produced ones. ctest act_cli_telemetry
 * (tools/cli_telemetry.cmake) sets both, on a traced fig08 run and on
 * an `act trace-merge` of three shard traces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "config/json.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace {

using namespace act;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

struct ParsedSpan
{
    std::string name;
    std::string category;
    double start_us = 0.0;
    double end_us = 0.0;
};

struct TraceSummary
{
    std::size_t events = 0;
    std::set<std::string> categories;
    std::set<std::string> metadata_names;
    std::set<std::uint64_t> pids;
    /** wall_epoch_us values from trace_epoch metadata events. */
    std::vector<double> epochs;
    /** Keyed by (pid, tid): merged traces reuse tids across pids. */
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::vector<ParsedSpan>>
        spans_by_tid;
};

/**
 * Validate one trace document: the traceEvents schema, phase/field
 * well-formedness, and -- per thread id -- that complete events form a
 * proper nesting (RAII spans can contain or follow each other on a
 * thread but never partially overlap).
 */
TraceSummary
validateTrace(const config::JsonValue &root)
{
    TraceSummary summary;
    EXPECT_TRUE(root.isObject()) << "trace root must be an object";
    const config::JsonValue &events = root.at("traceEvents");
    EXPECT_TRUE(events.isArray());
    for (const config::JsonValue &event : events.asArray()) {
        ++summary.events;
        EXPECT_TRUE(event.isObject());
        EXPECT_TRUE(event.at("name").isString());
        EXPECT_TRUE(event.at("cat").isString());
        EXPECT_TRUE(event.at("ts").isNumber());
        EXPECT_GE(event.at("ts").asNumber(), 0.0);
        EXPECT_TRUE(event.at("pid").isNumber());
        const std::uint64_t pid = config::count(event, "pid");
        const std::uint64_t tid = config::count(event, "tid");
        summary.pids.insert(pid);
        const std::string &phase = event.at("ph").asString();
        EXPECT_TRUE(phase == "X" || phase == "M")
            << "unexpected phase '" << phase << "'";
        if (phase == "M") {
            // Metadata events (trace_epoch, process_name) ride on
            // tid 0 at ts 0 and never form spans.
            const std::string &name = event.at("name").asString();
            summary.metadata_names.insert(name);
            if (name == "trace_epoch") {
                summary.epochs.push_back(
                    event.at("args").at("wall_epoch_us").asNumber());
            }
            continue;
        }
        EXPECT_GE(tid, 1u);
        summary.categories.insert(event.at("cat").asString());
        if (phase == "X") {
            EXPECT_TRUE(event.at("dur").isNumber());
            EXPECT_GE(event.at("dur").asNumber(), 0.0);
            ParsedSpan span;
            span.name = event.at("name").asString();
            span.category = event.at("cat").asString();
            span.start_us = event.at("ts").asNumber();
            span.end_us = span.start_us + event.at("dur").asNumber();
            summary
                .spans_by_tid[{pid, tid}]
                .push_back(std::move(span));
        }
    }

    // Nesting check per thread: sweep spans by start time (ties:
    // longer first, i.e. outermost first) and keep a stack of open
    // spans; every span must be fully contained in the enclosing one.
    for (auto &[key, spans] : summary.spans_by_tid) {
        std::stable_sort(spans.begin(), spans.end(),
                         [](const ParsedSpan &a, const ParsedSpan &b) {
                             if (a.start_us != b.start_us)
                                 return a.start_us < b.start_us;
                             return a.end_us > b.end_us;
                         });
        std::vector<const ParsedSpan *> open;
        for (const ParsedSpan &span : spans) {
            while (!open.empty() &&
                   open.back()->end_us <= span.start_us) {
                open.pop_back();
            }
            if (!open.empty()) {
                EXPECT_LE(span.end_us, open.back()->end_us)
                    << "span '" << span.name << "' on pid "
                    << key.first << " tid " << key.second
                    << " partially overlaps '" << open.back()->name
                    << "'";
            }
            open.push_back(&span);
        }
    }
    return summary;
}

TEST(TraceTest, DisabledByDefaultAndSpansAreNoOps)
{
    ASSERT_FALSE(util::traceEnabled());
    {
        TRACE_SPAN("test.off", "should_not_record");
    }
    util::flushTrace(); // no file set: must be a no-op, not a crash
}

TEST(TraceTest, SpansProduceValidParseableJson)
{
    const std::string path = "util_trace_test_out.json";
    std::remove(path.c_str());
    util::setTraceFile(path);
    ASSERT_TRUE(util::traceEnabled());

    {
        TRACE_SPAN("test.outer", "outer");
        {
            TRACE_SPAN("test.inner", "inner");
        }
        {
            TRACE_SPAN("test.inner", "sibling");
        }
    }
    // Spans emitted from runChunks helper threads must carry their own
    // tids and stay well-formed.
    util::setThreadCount(4);
    util::runChunks(util::staticChunks(0, 32, 2),
                    [](std::size_t, util::IndexRange range) {
                        for (std::size_t i = range.begin; i < range.end;
                             ++i) {
                            TRACE_SPAN("test.worker",
                                       "work#" + std::to_string(i));
                        }
                    });
    util::setThreadCount(0);

    util::setTraceFile(""); // flush + disable
    ASSERT_FALSE(util::traceEnabled());

    const config::JsonValue root =
        config::JsonValue::parse(readFile(path));
    const TraceSummary summary = validateTrace(root);
    EXPECT_GE(summary.events, 5u);
    EXPECT_TRUE(summary.categories.count("test.outer"));
    EXPECT_TRUE(summary.categories.count("test.inner"));
    EXPECT_TRUE(summary.categories.count("test.worker"));
    // util/parallel contributes its own spans around the runChunks.
    EXPECT_TRUE(summary.categories.count("util.parallel"));

    // Every trace file carries its wall-clock epoch so `act
    // trace-merge` can align files from different processes.
    ASSERT_EQ(summary.epochs.size(), 1u);
    EXPECT_GT(summary.epochs[0], 0.0);

    // The inner spans must be contained in the outer one on its tid.
    bool outer_found = false;
    for (const auto &[tid, spans] : summary.spans_by_tid) {
        const auto outer = std::find_if(
            spans.begin(), spans.end(), [](const ParsedSpan &span) {
                return span.name == "outer";
            });
        if (outer == spans.end())
            continue;
        outer_found = true;
        for (const ParsedSpan &span : spans) {
            if (span.name != "inner" && span.name != "sibling")
                continue;
            EXPECT_GE(span.start_us, outer->start_us);
            EXPECT_LE(span.end_us, outer->end_us);
        }
    }
    EXPECT_TRUE(outer_found);
    std::remove(path.c_str());
}

TEST(TraceTest, NamesAreJsonEscaped)
{
    const std::string path = "util_trace_test_escape.json";
    std::remove(path.c_str());
    util::setTraceFile(path);
    {
        TRACE_SPAN("test.escape", "quote\"back\\slash\nnewline");
    }
    util::setTraceFile("");
    const config::JsonValue root =
        config::JsonValue::parse(readFile(path));
    bool found = false;
    for (const config::JsonValue &event :
         root.at("traceEvents").asArray()) {
        if (event.at("name").asString() ==
            "quote\"back\\slash\nnewline") {
            found = true;
        }
    }
    EXPECT_TRUE(found);
    std::remove(path.c_str());
}

/**
 * Validator: when ACT_TRACE_VALIDATE names a trace file produced by a
 * real run (e.g. `ACT_TRACE=trace.json fig08_mobile_design_space`),
 * validate it and require the per-figure span of the bench harness.
 */
TEST(TraceFileValidation, ExternalFile)
{
    const char *path = std::getenv("ACT_TRACE_VALIDATE");
    if (path == nullptr || *path == '\0')
        GTEST_SKIP() << "ACT_TRACE_VALIDATE not set";
    const config::JsonValue root =
        config::JsonValue::parse(readFile(path));
    const TraceSummary summary = validateTrace(root);
    EXPECT_GT(summary.events, 0u);
    EXPECT_TRUE(summary.categories.count("bench"))
        << "expected a per-figure bench span";
}

/**
 * Validator: when ACT_TRACE_VALIDATE_MERGED names an `act trace-merge`
 * output of traced `act sweep` shards, validate it like any trace and
 * require the merge artifacts -- one trace_epoch, one pid and
 * process_name per source file -- and the spans the instrumentation
 * contract promises: util/parallel, the sweep engine and the CLI.
 */
TEST(TraceFileValidation, MergedFile)
{
    const char *path = std::getenv("ACT_TRACE_VALIDATE_MERGED");
    if (path == nullptr || *path == '\0')
        GTEST_SKIP() << "ACT_TRACE_VALIDATE_MERGED not set";
    const config::JsonValue root =
        config::JsonValue::parse(readFile(path));
    const TraceSummary summary = validateTrace(root);
    EXPECT_GT(summary.events, 0u);
    EXPECT_EQ(summary.epochs.size(), 1u)
        << "merged trace must carry exactly one trace_epoch";
    EXPECT_GE(summary.pids.size(), 2u)
        << "expected each source trace on its own pid";
    EXPECT_TRUE(summary.metadata_names.count("process_name"))
        << "expected process_name labels for the merged pids";
    EXPECT_TRUE(summary.categories.count("util.parallel"))
        << "expected util/parallel spans";
    EXPECT_TRUE(summary.categories.count("sweep"))
        << "expected sweep-engine spans";
    EXPECT_TRUE(summary.categories.count("cli"))
        << "expected act command spans";
}

} // namespace

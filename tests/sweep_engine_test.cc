/**
 * @file
 * Tests for the unified sweep engine: plan serialization, shard
 * tiling, and the core contract -- a sweep split across shards and
 * merged is byte-identical to the single-process run, for any shard
 * count and any thread count.
 */

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "accel/design_space.h"
#include "core/embodied.h"
#include "core/fab_params.h"
#include "core/model_config.h"
#include "data/soc_db.h"
#include "dse/montecarlo.h"
#include "mobile/platform.h"
#include "sweep/domains.h"
#include "sweep/engine.h"
#include "sweep/plan.h"
#include "util/parallel.h"
#include "util/units.h"

namespace act::sweep {
namespace {

class SweepEngineTest : public ::testing::Test
{
  protected:
    void TearDown() override { util::setThreadCount(0); }
};

// ---------------------------------------------------------------------
// Plan serialization
// ---------------------------------------------------------------------

TEST_F(SweepEngineTest, PlanJsonRoundTrip)
{
    SweepPlan plan;
    plan.domain = "cpa_montecarlo";
    plan.items = 12'345;
    plan.grain = 512;
    plan.seed = 977;
    plan.fingerprint = core::modelConfigFingerprint();
    config::JsonObject domain_config;
    domain_config["node_nm"] = config::JsonValue(14.0);
    plan.config = config::JsonValue(std::move(domain_config));

    const std::string dumped = toJson(plan).dump();
    const SweepPlan parsed =
        sweepPlanFromJson(config::JsonValue::parse(dumped));
    EXPECT_EQ(parsed.domain, plan.domain);
    EXPECT_EQ(parsed.items, plan.items);
    EXPECT_EQ(parsed.grain, plan.grain);
    EXPECT_EQ(parsed.seed, plan.seed);
    EXPECT_EQ(parsed.fingerprint, plan.fingerprint);
    // Re-serializing must reproduce the document exactly; shard-merge
    // plan comparison depends on this.
    EXPECT_EQ(toJson(parsed).dump(), dumped);
}

TEST_F(SweepEngineTest, PlanRoundTripsSeedsBeyondDoublePrecision)
{
    SweepPlan plan;
    plan.domain = "mobile";
    plan.seed = (1ULL << 62) + 3'141'592'653ULL;
    const SweepPlan parsed = sweepPlanFromJson(
        config::JsonValue::parse(toJson(plan).dump()));
    EXPECT_EQ(parsed.seed, plan.seed);
}

/** The JsonTypeError message @p read throws; "" when it returns. */
template <typename Read>
std::string
errorOf(Read read)
{
    try {
        read();
    } catch (const config::JsonTypeError &error) {
        return error.what();
    }
    return "";
}

TEST_F(SweepEngineTest, PlanRequiresDomain)
{
    EXPECT_EQ(errorOf([] {
                  sweepPlanFromJson(config::JsonValue::parse("{}"));
              }),
              "missing 'domain'");
}

TEST_F(SweepEngineTest, SeedStringsMustSpellAWholeUint64)
{
    // strtoull used to wrap "-1" and saturate the overflow, both to
    // 18446744073709551615, and to skip leading space.
    for (const char *seed :
         {"-1", "99999999999999999999999", " 5", "5x", ""}) {
        const std::string text =
            std::string(R"({"domain": "mobile", "seed": ")") + seed + "\"}";
        EXPECT_EQ(errorOf([&] {
                      sweepPlanFromJson(config::JsonValue::parse(text));
                  }),
                  std::string("'seed' must be an unsigned 64-bit integer "
                              "(got \"") +
                      seed + "\")");
    }
    SweepPlan plan;
    plan.domain = "mobile";
    plan.seed = 18446744073709551615ULL;
    const config::JsonValue document = toJson(plan);
    EXPECT_EQ(document.at("seed").asString(), "18446744073709551615");
    EXPECT_EQ(sweepPlanFromJson(document).seed, plan.seed);
    // A number seed is a count: negative and fractional ones throw.
    EXPECT_EQ(errorOf([] {
                  sweepPlanFromJson(config::JsonValue::parse(
                      R"({"domain": "mobile", "seed": -1})"));
              }),
              "'seed' must be a non-negative integer (got -1)");
}

// ---------------------------------------------------------------------
// Shard tiling
// ---------------------------------------------------------------------

TEST_F(SweepEngineTest, ShardsTileChunksExactly)
{
    for (const std::size_t chunks : {1u, 2u, 5u, 13u, 64u}) {
        for (const std::size_t shards : {1u, 2u, 3u, 5u, 13u}) {
            std::size_t covered = 0;
            std::size_t previous_end = 0;
            for (std::size_t i = 0; i < shards; ++i) {
                const util::IndexRange range =
                    shardChunkRange(chunks, {shards, i});
                EXPECT_EQ(range.begin, previous_end)
                    << chunks << " chunks, shard " << i << "/" << shards;
                previous_end = range.end;
                covered += range.size();
            }
            EXPECT_EQ(previous_end, chunks);
            EXPECT_EQ(covered, chunks);
        }
    }
}

TEST_F(SweepEngineTest, ShardsTileChunksExactlyNearTwoTo53Shards)
{
    // chunks * shard_index used to be computed in size_t, which wraps
    // once it passes 2^64: shard 2^53 - 1 of 2^53 over 10000 chunks
    // claimed [1807, 1808) instead of [9999, 10000).
    constexpr std::size_t kTwoTo53 = std::size_t{1} << 53;
    for (const std::size_t chunks : {std::size_t{10000},
                                     std::size_t{1} << 30}) {
        for (const std::size_t shards :
             {kTwoTo53 - 1, kTwoTo53, kTwoTo53 + 1,
              (std::size_t{1} << 63) - 1}) {
            EXPECT_EQ(shardChunkRange(chunks, {shards, 0}).begin, 0u);
            // More shards than chunks: the last shard owns the last
            // chunk alone.
            const util::IndexRange last =
                shardChunkRange(chunks, {shards, shards - 1});
            EXPECT_EQ(last.begin, chunks - 1) << shards << " shards";
            EXPECT_EQ(last.end, chunks) << shards << " shards";
            // Neighbours meet exactly and own at most one chunk each.
            for (std::size_t eighth = 1; eighth < 8; ++eighth) {
                const std::size_t index = shards / 8 * eighth;
                const util::IndexRange range =
                    shardChunkRange(chunks, {shards, index});
                EXPECT_EQ(shardChunkRange(chunks, {shards, index - 1}).end,
                          range.begin);
                EXPECT_EQ(shardChunkRange(chunks, {shards, index + 1}).begin,
                          range.end);
                EXPECT_LE(range.size(), 1u);
            }
        }
        // With 2^53 shards, shard 2^53 * k / 8 begins at chunk C * k / 8.
        for (std::size_t eighth = 1; eighth < 8; ++eighth) {
            EXPECT_EQ(shardChunkRange(chunks,
                                      {kTwoTo53, kTwoTo53 / 8 * eighth})
                          .begin,
                      chunks / 8 * eighth);
        }
    }
}

TEST_F(SweepEngineTest, InvalidShardSpecIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(validateShard({0, 0}), ::testing::ExitedWithCode(1),
                "");
    EXPECT_EXIT(validateShard({3, 3}), ::testing::ExitedWithCode(1),
                "");
}

// ---------------------------------------------------------------------
// Shard-vs-single bit-identity
// ---------------------------------------------------------------------

/** A prepared plan from JSON text. */
SweepPlan
preparedPlan(const std::string &text)
{
    SweepPlan plan =
        sweepPlanFromJson(config::JsonValue::parse(text));
    findDomain(plan.domain).prepare(plan);
    return plan;
}

/** A 10k-sample CPA Monte Carlo plan (5 chunks of 2048). */
SweepPlan
monteCarloPlan()
{
    return preparedPlan(R"({
        "domain": "cpa_montecarlo",
        "items": 10000,
        "seed": 42,
        "config": {
            "node_nm": 14,
            "parameters": [
                {"name": "ci_fab_g_per_kwh", "distribution": "uniform",
                 "low": 30, "high": 700},
                {"name": "yield", "distribution": "triangular",
                 "low": 0.8, "baseline": 0.875, "high": 0.95},
                {"name": "abatement", "distribution": "uniform",
                 "low": 0.9, "high": 1.0}
            ]
        }
    })");
}

/** The Fig. 8 SoC sweep under a non-default fab. */
SweepPlan
mobilePlan()
{
    return preparedPlan(R"({
        "domain": "mobile",
        "seed": 42,
        "config": {
            "fab": {"ci_fab_g_per_kwh": 123, "abatement": 0.99,
                    "yield": 0.8, "lookup": "nearest"}
        }
    })");
}

/** The examples/configs/sweep_accel.json node x MAC walk. */
SweepPlan
accelPlan()
{
    return preparedPlan(R"({
        "domain": "accel",
        "seed": 42,
        "config": {"nodes": [28, 20, 16, 10, 7, 5, 3]}
    })");
}

/** The examples/configs/sweep_chiplet.json packaging grid. */
SweepPlan
chipletPlan()
{
    return preparedPlan(R"({
        "domain": "chiplet",
        "seed": 42,
        "config": {"logic_area_mm2": 800, "node_nm": 7,
                   "max_chiplets": 8, "defect_density_per_cm2": 0.15,
                   "ci_fab_g_per_kwh": [30, 300, 700]}
    })");
}

/** A two-day, one-region fleet replay (8 chunks of 256 jobs). */
SweepPlan
fleetPlan()
{
    return preparedPlan(R"({
        "domain": "fleet", "items": 2000, "grain": 256, "seed": 42,
        "config": {"regions": [{"name": "is-flat", "profile": "flat",
                                "region": "Iceland"}],
                   "jobs": {"horizon_hours": 48}}
    })");
}

TEST_F(SweepEngineTest, ShardedMergeIsByteIdenticalToSingleProcess)
{
    for (const SweepPlan &plan :
         {monteCarloPlan(), mobilePlan(), accelPlan(), chipletPlan(),
          fleetPlan()}) {
        const Domain &domain = findDomain(plan.domain);

        util::setThreadCount(1);
        const std::string reference =
            fullSweepResult(plan, domain.evaluator(plan)).dump();

        for (const std::size_t threads : {1u, 7u}) {
            util::setThreadCount(threads);
            EXPECT_EQ(
                fullSweepResult(plan, domain.evaluator(plan)).dump(),
                reference)
                << plan.domain << ", single-process, " << threads
                << " threads";
            for (const std::size_t shard_count : {1u, 2u, 3u, 4u, 5u}) {
                std::vector<ShardResult> partials;
                for (std::size_t i = 0; i < shard_count; ++i) {
                    // Round-trip every partial through its file
                    // format, exactly as the multi-process path would.
                    const ShardResult partial = runShardedSweep(
                        plan, {shard_count, i}, domain.evaluator(plan));
                    partials.push_back(
                        shardResultFromJson(toJson(partial)));
                }
                EXPECT_EQ(mergeShards(partials).dump(), reference)
                    << plan.domain << ", " << shard_count
                    << " shards, " << threads << " threads";
            }
        }
    }
}

TEST_F(SweepEngineTest, PartialRoundTripIsBitExact)
{
    using config::JsonArray;
    using config::JsonObject;
    using config::JsonValue;
    constexpr double kMax = std::numeric_limits<double>::max();

    ShardResult result;
    result.plan = monteCarloPlan();
    result.shard = {1, 0};
    result.chunk_begin = 3;
    // Edge cases of the writer's decimal text: a signed zero, the
    // smallest subnormal and normal, the extremes, an inexact decimal,
    // and both sides of the integral-format boundary at 1e15.
    result.chunks.emplace_back(
        JsonArray{-0.0, 5e-324, 2.2250738585072014e-308, kMax, -kMax,
                  0.1, 1e15 - 1, 1e15});
    result.chunks.emplace_back(JsonArray{1, "x"});
    result.chunks.emplace_back(JsonArray{});
    result.chunks.emplace_back(
        JsonArray{JsonArray{1, 2}, JsonArray{3}});
    result.chunks.emplace_back(JsonArray{
        JsonObject{{"s", "t"}, {"v", JsonArray{1.5, 2.5}}}});
    result.chunks.emplace_back(JsonObject{{"n", 4}, {"e", JsonArray{}}});

    const JsonValue encoded = toJson(result);
    EXPECT_EQ(encoded.at("format").asString(), "act.sweep.partial.v2");
    // Only the non-empty all-number arrays are packed.
    const std::vector<std::string> expected = {
        R"({"f64":"8000000000000000000000000000000100100000000000007fefffffffffffffffefffffffffffff3fb999999999999a430c6bf52633fff8430c6bf526340000"})",
        R"([1,"x"])",
        "[]",
        R"([{"f64":"3ff00000000000004000000000000000"},{"f64":"4008000000000000"}])",
        R"([{"s":"t","v":{"f64":"3ff80000000000004004000000000000"}}])",
        R"({"e":[],"n":4})",
    };
    const JsonArray &chunks = encoded.at("chunks").asArray();
    ASSERT_EQ(chunks.size(), expected.size());
    for (std::size_t i = 0; i < chunks.size(); ++i)
        EXPECT_EQ(chunks[i].dump(), expected[i]) << "chunk " << i;

    // The restored payloads are the written ones, bit for bit, also
    // after a trip through the file's text.
    for (const JsonValue &document :
         {encoded, JsonValue::parse(encoded.dump(2))}) {
        const ShardResult restored = shardResultFromJson(document);
        ASSERT_EQ(restored.chunks.size(), result.chunks.size());
        for (std::size_t i = 0; i < result.chunks.size(); ++i) {
            EXPECT_EQ(restored.chunks[i].dump(), result.chunks[i].dump())
                << "chunk " << i;
        }
        EXPECT_EQ(restored.chunk_begin, result.chunk_begin);
    }

    // A bad packed array names its global chunk index and element.
    JsonValue corrupt = encoded;
    corrupt.asObject()["chunks"].asArray()[3].asArray()[1] =
        JsonValue(JsonObject{{"f64", "40080000000000"}});
    try {
        shardResultFromJson(corrupt);
        ADD_FAILURE() << "a 14-digit packed number was accepted";
    } catch (const config::JsonTypeError &error) {
        EXPECT_EQ(std::string(error.what()),
                  "chunk 6: 'f64[0]' must be 16 hex digits of a finite "
                  "number (got \"40080000000000\")");
    }
}

/** Every payload point of a single-process run, in item order. */
std::vector<config::JsonValue>
payloadPoints(const SweepPlan &plan)
{
    const config::JsonValue doc =
        fullSweepResult(plan, findDomain(plan.domain).evaluator(plan));
    std::vector<config::JsonValue> points;
    for (const config::JsonValue &chunk : doc.at("results").asArray()) {
        for (const config::JsonValue &point : chunk.asArray())
            points.push_back(point);
    }
    return points;
}

TEST_F(SweepEngineTest, MobilePointsMatchDesignPointBitwise)
{
    const SweepPlan plan = mobilePlan();
    core::FabParams fab;
    fab.ci_fab = util::gramsPerKilowattHour(123.0);
    fab.abatement = 0.99;
    fab.yield = 0.8;
    fab.lookup = data::NodeLookup::NearestAnchor;

    const auto records = data::SocDatabase::instance().records();
    const std::vector<config::JsonValue> points = payloadPoints(plan);
    ASSERT_EQ(points.size(), records.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const core::DesignPoint expected =
            mobile::designPoint(records[i], fab);
        const config::JsonValue &point = points[i];
        EXPECT_EQ(point.at("name").asString(), expected.name);
        EXPECT_EQ(point.at("embodied_kg").asNumber(),
                  util::asKilograms(expected.embodied))
            << expected.name;
        EXPECT_EQ(point.at("energy_j").asNumber(),
                  util::asJoules(expected.energy));
        EXPECT_EQ(point.at("delay_s").asNumber(),
                  util::asSeconds(expected.delay));
        EXPECT_EQ(point.at("area_mm2").asNumber(),
                  util::asSquareMillimeters(expected.area));
    }
}

TEST_F(SweepEngineTest, AccelPointsMatchSweepDesignSpaceBitwise)
{
    const SweepPlan plan = accelPlan();
    const accel::NpuModel model;
    const std::vector<config::JsonValue> points = payloadPoints(plan);
    const std::size_t macs = accel::macSweep().size();
    const double nodes[] = {28, 20, 16, 10, 7, 5, 3};
    ASSERT_EQ(points.size(), std::size(nodes) * macs);
    for (std::size_t n = 0; n < std::size(nodes); ++n) {
        const std::vector<accel::SweepEntry> entries =
            accel::sweepDesignSpace(model, nodes[n], core::FabParams{});
        ASSERT_EQ(entries.size(), macs);
        for (std::size_t m = 0; m < macs; ++m) {
            const accel::NpuEvaluation &evaluation =
                entries[m].evaluation;
            const config::JsonValue &point = points[n * macs + m];
            EXPECT_EQ(point.at("node_nm").asNumber(), nodes[n]);
            EXPECT_EQ(point.at("macs").asNumber(),
                      static_cast<double>(evaluation.config.mac_count));
            EXPECT_EQ(point.at("embodied_g").asNumber(),
                      util::asGrams(entries[m].embodied))
                << nodes[n] << " nm, " << evaluation.config.mac_count
                << " MACs";
            EXPECT_EQ(point.at("energy_per_frame_j").asNumber(),
                      util::asJoules(evaluation.energy_per_frame));
            EXPECT_EQ(point.at("latency_s").asNumber(),
                      util::asSeconds(evaluation.latency));
            EXPECT_EQ(point.at("fps").asNumber(),
                      evaluation.frames_per_second);
            EXPECT_EQ(point.at("area_mm2").asNumber(),
                      util::asSquareMillimeters(evaluation.area));
            EXPECT_EQ(point.at("utilization").asNumber(),
                      evaluation.utilization);
        }
    }
}

TEST_F(SweepEngineTest, MetricsAndHeartbeatsNeverChangeTheResult)
{
    const SweepPlan plan = monteCarloPlan();
    const Domain &domain = findDomain(plan.domain);
    const std::string reference =
        fullSweepResult(plan, domain.evaluator(plan)).dump();

    const config::JsonValue metrics = config::JsonValue::parse(R"({
        "format": "act.metrics.v2",
        "counters": {"sweep.items": 5000},
        "histograms": {}
    })");

    ShardRunOptions options;
    options.heartbeat_path =
        "sweep_engine_test_hb.heartbeat.json";
    options.heartbeat_interval_s = 0.0;

    std::vector<ShardResult> partials;
    for (std::size_t i = 0; i < 2; ++i) {
        ShardResult partial = runShardedSweep(
            plan, {2, i}, domain.evaluator(plan), options);
        partial.metrics = metrics;
        // Round-trip through the file format: the metrics section
        // must survive the partial...
        ShardResult restored =
            shardResultFromJson(toJson(partial));
        EXPECT_EQ(restored.metrics.dump(), metrics.dump());
        partials.push_back(std::move(restored));
    }
    // ...and the merged result document must not contain it.
    EXPECT_EQ(mergeShards(partials).dump(), reference);
    std::remove(options.heartbeat_path.c_str());
}

TEST_F(SweepEngineTest, NegativeShardFieldsThrowNamingTheField)
{
    const SweepPlan plan = monteCarloPlan();
    const Domain &domain = findDomain(plan.domain);
    const config::JsonValue partial =
        toJson(runShardedSweep(plan, {2, 1}, domain.evaluator(plan)));
    struct Edit
    {
        const char *key;
        int value;
        const char *domain;
    };
    for (const Edit edit :
         {Edit{"shard_count", -1, "an integer >= 1"},
          Edit{"shard_count", 0, "an integer >= 1"},
          Edit{"shard_index", -1, "an integer in [0, 1]"},
          Edit{"shard_index", 2, "an integer in [0, 1]"},
          Edit{"chunk_begin", -5, "a non-negative integer"}}) {
        config::JsonValue edited = partial;
        edited.asObject()[edit.key] = config::JsonValue(edit.value);
        try {
            shardResultFromJson(edited);
            ADD_FAILURE() << edit.key << " " << edit.value
                          << " was accepted";
        } catch (const config::JsonTypeError &error) {
            EXPECT_EQ(std::string(error.what()),
                      "'" + std::string(edit.key) + "' must be " +
                          edit.domain + " (got " +
                          std::to_string(edit.value) + ")");
        }
    }
}

TEST_F(SweepEngineTest, MergedResultMatchesInProcessMonteCarlo)
{
    const SweepPlan plan = monteCarloPlan();
    const Domain &domain = findDomain(plan.domain);

    std::vector<ShardResult> partials;
    for (std::size_t i = 0; i < 3; ++i)
        partials.push_back(
            runShardedSweep(plan, {3, i}, domain.evaluator(plan)));
    const config::JsonValue merged = mergeShards(partials);
    const dse::MonteCarloResult sharded =
        monteCarloResultFromPayloads(
            plan.items, merged.at("results").asArray());

    // The same sweep evaluated wholly in process, through
    // dse::monteCarlo, with a hand-built model identical to the
    // domain's: every statistic must agree bit-for-bit.
    std::vector<dse::UncertainParameter> parameters(3);
    parameters[0] = {"ci_fab", dse::Distribution::Uniform, 365.0, 30.0,
                     700.0};
    parameters[1] = {"yield", dse::Distribution::Triangular, 0.875,
                     0.8, 0.95};
    parameters[2] = {"abatement", dse::Distribution::Uniform, 0.95,
                     0.9, 1.0};
    const auto model = [](const std::vector<double> &values) {
        core::FabParams fab;
        fab.ci_fab = util::gramsPerKilowattHour(values[0]);
        fab.yield = values[1];
        fab.abatement = values[2];
        return core::carbonPerArea(fab, 14.0).value();
    };
    const dse::MonteCarloResult direct =
        dse::monteCarlo(parameters, model, plan.items, plan.seed);

    EXPECT_EQ(sharded.samples, direct.samples);
    EXPECT_EQ(sharded.mean, direct.mean);
    EXPECT_EQ(sharded.stddev, direct.stddev);
    EXPECT_EQ(sharded.p5, direct.p5);
    EXPECT_EQ(sharded.p50, direct.p50);
    EXPECT_EQ(sharded.p95, direct.p95);
    EXPECT_EQ(sharded.min, direct.min);
    EXPECT_EQ(sharded.max, direct.max);
}

// ---------------------------------------------------------------------
// cpa_montecarlo range validation
// ---------------------------------------------------------------------

/** Prepare a one-parameter cpa_montecarlo plan over [low, high]. */
void
prepareRange(const std::string &name, const std::string &low,
             const std::string &high)
{
    preparedPlan(R"({"domain": "cpa_montecarlo", "items": 1000,
        "config": {"node_nm": 7, "parameters": [{"name": ")" +
                 name + R"(", "low": )" + low + R"(, "high": )" + high +
                 "}]}}");
}

TEST_F(SweepEngineTest, MonteCarloRangesInsideTheirDomainsPrepare)
{
    prepareRange("ci_fab_g_per_kwh", "0", "1000");
    prepareRange("yield", "0.5", "1");
    prepareRange("abatement", "0.9", "1");
}

TEST_F(SweepEngineTest, NegativeCiFabRangeThrows)
{
    EXPECT_EQ(errorOf([] {
                  prepareRange("ci_fab_g_per_kwh", "-500", "-100");
              }),
              "parameters[0]: 'low' must be a number >= 0 (got -500)");
    EXPECT_EQ(errorOf([] { prepareRange("ci_fab_g_per_kwh", "-1", "100"); }),
              "parameters[0]: 'low' must be a number >= 0 (got -1)");
}

TEST_F(SweepEngineTest, YieldRangeOutsideUnitIntervalThrows)
{
    EXPECT_EQ(errorOf([] { prepareRange("yield", "0", "0.5"); }),
              "parameters[0]: 'low' must be a number in (0, 1] (got 0)");
    EXPECT_EQ(errorOf([] { prepareRange("yield", "0.5", "1.2"); }),
              "parameters[0]: 'high' must be a number in (0, 1] (got 1.2)");
}

TEST_F(SweepEngineTest, AbatementRangeOutsideBandThrows)
{
    EXPECT_EQ(errorOf([] { prepareRange("abatement", "0.5", "0.99"); }),
              "parameters[0]: 'low' must be a number in [0.9, 1] (got 0.5)");
    EXPECT_EQ(errorOf([] { prepareRange("abatement", "0.95", "1.00002"); }),
              "parameters[0]: 'high' must be a number in [0.9, 1] "
              "(got 1.00002)");
}

// ---------------------------------------------------------------------
// Merge rejection
// ---------------------------------------------------------------------

class SweepMergeDeathTest : public SweepEngineTest
{
  protected:
    void
    SetUp() override
    {
        ::testing::FLAGS_gtest_death_test_style = "threadsafe";
        plan_ = monteCarloPlan();
        const Domain &domain = findDomain(plan_.domain);
        for (std::size_t i = 0; i < 2; ++i)
            partials_.push_back(runShardedSweep(
                plan_, {2, i}, domain.evaluator(plan_)));
    }

    SweepPlan plan_;
    std::vector<ShardResult> partials_;
};

TEST_F(SweepMergeDeathTest, RejectsMissingPartial)
{
    EXPECT_EXIT(mergeShards({partials_[0]}),
                ::testing::ExitedWithCode(1), "");
}

TEST_F(SweepMergeDeathTest, RejectsDuplicateShard)
{
    EXPECT_EXIT(mergeShards({partials_[0], partials_[0]}),
                ::testing::ExitedWithCode(1), "");
}

TEST_F(SweepMergeDeathTest, RejectsMismatchedPlans)
{
    ShardResult other = partials_[1];
    other.plan.seed ^= 1;
    EXPECT_EXIT(mergeShards({partials_[0], other}),
                ::testing::ExitedWithCode(1), "");
}

TEST_F(SweepMergeDeathTest, RejectsMismatchedShardCounts)
{
    const Domain &domain = findDomain(plan_.domain);
    const ShardResult stray =
        runShardedSweep(plan_, {3, 1}, domain.evaluator(plan_));
    EXPECT_EXIT(mergeShards({partials_[0], stray}),
                ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace act::sweep

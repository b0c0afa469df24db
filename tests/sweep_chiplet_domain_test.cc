/**
 * @file
 * Tests for the "chiplet" sweep domain: the packaging-style x
 * die-count grid evaluated through pkg::evaluatePackage(), and the
 * engine contract -- shards merge byte-identically to the
 * single-process run at any shard and thread count.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pkg/package.h"
#include "sweep/domains.h"
#include "sweep/engine.h"
#include "sweep/plan.h"
#include "util/parallel.h"

namespace act::sweep {
namespace {

/** The examples/configs/sweep_chiplet.json grid: 4 styles, 8 max
 *  chiplets, a 3-value fab-CI scenario column. */
SweepPlan
chipletPlan()
{
    const std::string text = R"({
        "domain": "chiplet",
        "seed": 42,
        "config": {
            "logic_area_mm2": 800,
            "node_nm": 7,
            "max_chiplets": 8,
            "defect_density_per_cm2": 0.15,
            "ci_fab_g_per_kwh": [30, 300, 700]
        }
    })";
    SweepPlan plan =
        sweepPlanFromJson(config::JsonValue::parse(text));
    findDomain(plan.domain).prepare(plan);
    return plan;
}

class SweepChipletDomainTest : public ::testing::Test
{
  protected:
    void TearDown() override { util::setThreadCount(0); }
};

TEST_F(SweepChipletDomainTest, DomainIsRegistered)
{
    bool found = false;
    for (const std::string_view name : domainNames())
        found = found || name == "chiplet";
    EXPECT_TRUE(found);
    EXPECT_FALSE(findDomain("chiplet").description.empty());
}

TEST_F(SweepChipletDomainTest, GridSpansStylesTimesDieCounts)
{
    // 1 monolithic point + 3 multi-die styles x counts 2..8.
    EXPECT_EQ(chipletPlan().items, 1u + 3u * 7u);
}

TEST_F(SweepChipletDomainTest,
       ShardedMergeIsByteIdenticalToSingleProcess)
{
    const SweepPlan plan = chipletPlan();
    const Domain &domain = findDomain(plan.domain);

    util::setThreadCount(1);
    const std::string reference =
        fullSweepResult(plan, domain.evaluator(plan)).dump();

    for (const std::size_t threads : {1u, 2u, 7u}) {
        util::setThreadCount(threads);
        EXPECT_EQ(fullSweepResult(plan, domain.evaluator(plan)).dump(),
                  reference)
            << "single-process, " << threads << " threads";
        for (const std::size_t shard_count : {1u, 3u}) {
            std::vector<ShardResult> partials;
            for (std::size_t i = 0; i < shard_count; ++i) {
                // Round-trip every partial through its file format,
                // exactly as the multi-process path would.
                const ShardResult partial = runShardedSweep(
                    plan, {shard_count, i}, domain.evaluator(plan));
                partials.push_back(
                    shardResultFromJson(toJson(partial)));
            }
            EXPECT_EQ(mergeShards(partials).dump(), reference)
                << shard_count << " shards, " << threads
                << " threads";
        }
    }
}

TEST_F(SweepChipletDomainTest, PointsCarryTheScenarioColumn)
{
    const SweepPlan plan = chipletPlan();
    const Domain &domain = findDomain(plan.domain);
    const config::JsonValue doc =
        fullSweepResult(plan, domain.evaluator(plan));

    // Each point's totals must be pkg::evaluatePackage() bit-for-bit:
    // the plan's grid spec under the default fab, then once per
    // scenario with only fab.ci_fab changed.
    core::DefectParams defects;
    defects.defect_density_per_cm2 = 0.15;
    const double scenarios[] = {30.0, 300.0, 700.0};
    std::size_t points = 0;
    for (const config::JsonValue &chunk :
         doc.at("results").asArray()) {
        for (const config::JsonValue &point : chunk.asArray()) {
            ++points;
            pkg::PackageSpec spec = pkg::PackageSpec::forStyle(
                pkg::packagingStyleByName(
                    point.at("style").asString()));
            spec.chiplets.push_back(pkg::splitLogicDie(
                util::squareMillimeters(800.0),
                static_cast<int>(point.at("num_dies").asNumber()),
                7.0, defects, 0.10));
            const pkg::PackageResult result =
                pkg::evaluatePackage(spec, core::FabParams{});
            EXPECT_EQ(point.at("total_g").asNumber(),
                      util::asGrams(result.total));
            EXPECT_EQ(point.at("package_yield").asNumber(),
                      result.package_yield);
            const config::JsonArray &totals =
                point.at("ci_fab_totals_g").asArray();
            ASSERT_EQ(totals.size(), 3u);
            for (std::size_t i = 0; i < totals.size(); ++i) {
                core::FabParams fab;
                fab.ci_fab = util::gramsPerKilowattHour(scenarios[i]);
                EXPECT_EQ(totals[i].asNumber(),
                          util::asGrams(
                              pkg::evaluatePackage(spec, fab).total))
                    << point.at("style").asString() << " x "
                    << point.at("num_dies").asNumber() << ", scenario "
                    << i;
            }
            // Embodied carbon is strictly increasing in fab CI.
            EXPECT_LT(totals[0].asNumber(), totals[1].asNumber());
            EXPECT_LT(totals[1].asNumber(), totals[2].asNumber());
        }
    }
    EXPECT_EQ(points, plan.items);
}

TEST_F(SweepChipletDomainTest, SummarizeNamesTheMinimum)
{
    const SweepPlan plan = chipletPlan();
    const Domain &domain = findDomain(plan.domain);
    const config::JsonValue doc =
        fullSweepResult(plan, domain.evaluator(plan));
    const std::string summary =
        domain.summarize(plan, doc.at("results").asArray());
    EXPECT_NE(summary.find("chiplet packaging sweep, 22 packages"),
              std::string::npos)
        << summary;
    EXPECT_NE(summary.find("minimum embodied"), std::string::npos);
}

// ---------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------

class SweepChipletDeathTest : public SweepChipletDomainTest
{
  protected:
    void
    SetUp() override
    {
        ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    }

    static void
    prepareText(const std::string &text)
    {
        SweepPlan plan =
            sweepPlanFromJson(config::JsonValue::parse(text));
        findDomain(plan.domain).prepare(plan);
    }

    /** The JsonTypeError message preparing @p text throws. */
    static std::string
    prepareError(const std::string &text)
    {
        try {
            prepareText(text);
        } catch (const config::JsonTypeError &error) {
            return error.what();
        }
        ADD_FAILURE() << "expected JsonTypeError for " << text;
        return "";
    }
};

TEST_F(SweepChipletDeathTest, MissingLogicAreaThrows)
{
    EXPECT_EQ(prepareError(R"({"domain": "chiplet", "config": {}})"),
              "missing 'logic_area_mm2'");
}

TEST_F(SweepChipletDeathTest, UnknownStyleIsFatal)
{
    EXPECT_EXIT(prepareText(R"({"domain": "chiplet", "config": {
                    "logic_area_mm2": 800, "styles": ["bogus"]}})"),
                ::testing::ExitedWithCode(1), "unknown packaging");
}

TEST_F(SweepChipletDeathTest, PinnedItemMismatchIsFatal)
{
    EXPECT_EXIT(prepareText(R"({"domain": "chiplet", "items": 5,
                    "config": {"logic_area_mm2": 800}})"),
                ::testing::ExitedWithCode(1), "pins 5 items");
}

TEST_F(SweepChipletDeathTest, EmptyGridThrows)
{
    // Multi-die styles with max_chiplets 1 span no points.
    EXPECT_EQ(prepareError(R"({"domain": "chiplet", "config": {
                  "logic_area_mm2": 800, "max_chiplets": 1,
                  "styles": ["organic"]}})"),
              "chiplet config spans no grid points (multi-die styles need "
              "'max_chiplets' >= 2)");
}

TEST_F(SweepChipletDeathTest, NegativeScenarioCiThrows)
{
    EXPECT_EQ(prepareError(R"({"domain": "chiplet", "config": {
                  "logic_area_mm2": 800,
                  "ci_fab_g_per_kwh": [30, -1]}})"),
              "'ci_fab_g_per_kwh[1]' must be a number >= 0 (got -1)");
}

TEST_F(SweepChipletDeathTest, UnknownDomainHintsAtListDomains)
{
    EXPECT_EXIT(findDomain("nope"), ::testing::ExitedWithCode(1),
                "list-domains");
}

} // namespace
} // namespace act::sweep

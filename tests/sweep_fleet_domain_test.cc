/**
 * @file
 * Tests for the "fleet" sweep domain: the trace-driven job replay over
 * regional intensity series, its policy x region x lifetime scenario
 * grid, and the engine contract -- shards merge byte-identically to
 * the single-process run at any shard and thread count, because every
 * job seeds its own RNG stream from its index.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/replay.h"
#include "sweep/domains.h"
#include "sweep/engine.h"
#include "sweep/plan.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/simd.h"
#include "util/units.h"

namespace act::sweep {
namespace {

/** A miniature examples/configs/sweep_fleet.json: all four policies
 *  over a dirty solar region and a clean flat one, small enough to
 *  replay in milliseconds but spanning several chunks. */
SweepPlan
fleetPlan()
{
    const std::string text = R"({
        "domain": "fleet",
        "items": 2000,
        "grain": 256,
        "seed": 42,
        "config": {
            "pue": 1.3,
            "lifetime_years": [4],
            "policies": ["uniform", "greedy", "deadline", "migrate"],
            "deadline_samples": 6,
            "regions": [
                {"name": "tw-solar", "profile": "solar",
                 "region": "Taiwan", "share": 0.25},
                {"name": "is-flat", "profile": "flat",
                 "region": "Iceland"}
            ],
            "jobs": {"horizon_hours": 48, "max_slack_hours": 12}
        }
    })";
    SweepPlan plan = sweepPlanFromJson(config::JsonValue::parse(text));
    findDomain(plan.domain).prepare(plan);
    return plan;
}

class SweepFleetDomainTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        util::setThreadCount(0);
        util::setSimdLevel(util::detectedSimdLevel());
    }
};

/** Every SIMD level this binary can safely execute. */
std::vector<util::SimdLevel>
availableSimdLevels()
{
    std::vector<util::SimdLevel> levels = {util::SimdLevel::Scalar};
    if (util::simdLevelAvailable(util::SimdLevel::Avx2))
        levels.push_back(util::SimdLevel::Avx2);
    return levels;
}

/** Build a resolved FleetSetup straight from plan JSON. */
fleet::FleetSetup
setupFromText(const std::string &text)
{
    SweepPlan plan = sweepPlanFromJson(config::JsonValue::parse(text));
    findDomain(plan.domain).prepare(plan);
    return fleet::fleetSetupFromJson(plan.config, plan.seed);
}

/** Require two replay results to agree in every last bit: EXPECT_EQ
 *  on the doubles, no tolerances (DESIGN.md §11). */
void
expectBitIdentical(const std::vector<fleet::FleetAccumulator> &actual,
                   const std::vector<fleet::FleetAccumulator> &expected,
                   const std::string &label)
{
    ASSERT_EQ(actual.size(), expected.size()) << label;
    for (std::size_t s = 0; s < actual.size(); ++s) {
        const fleet::FleetAccumulator &a = actual[s];
        const fleet::FleetAccumulator &e = expected[s];
        EXPECT_EQ(a.jobs, e.jobs) << label << " scenario " << s;
        EXPECT_EQ(a.deferred, e.deferred) << label << " scenario " << s;
        EXPECT_EQ(a.migrated, e.migrated) << label << " scenario " << s;
        EXPECT_EQ(a.operational_g, e.operational_g)
            << label << " scenario " << s;
        EXPECT_EQ(a.embodied_g, e.embodied_g)
            << label << " scenario " << s;
        EXPECT_EQ(a.energy_kwh, e.energy_kwh)
            << label << " scenario " << s;
        EXPECT_EQ(a.busy_hours, e.busy_hours)
            << label << " scenario " << s;
        EXPECT_EQ(a.baseline_g, e.baseline_g)
            << label << " scenario " << s;
    }
}

/** Bit-identity of replayJobs() against the oracle at every SIMD
 *  level over block-ragged ranges (512-job blocks): the whole stream
 *  of @p items jobs, a mid-stream slice and the last job alone. */
void
expectOracleParity(const fleet::FleetSetup &setup, std::size_t items,
                   const std::string &label)
{
    const util::IndexRange ranges[] = {
        {0, items}, {237, 749}, {items - 1, items}};
    for (const util::IndexRange range : ranges) {
        const std::vector<fleet::FleetAccumulator> expected =
            fleet::replayJobsOracle(setup, range);
        for (const util::SimdLevel level : availableSimdLevels()) {
            util::setSimdLevel(level);
            expectBitIdentical(
                fleet::replayJobs(setup, range), expected,
                label + " " + util::simdLevelName(level) + " range [" +
                    std::to_string(range.begin) + ", " +
                    std::to_string(range.end) + ")");
        }
        util::setSimdLevel(util::detectedSimdLevel());
    }
}

TEST_F(SweepFleetDomainTest, DomainIsRegistered)
{
    bool found = false;
    for (const std::string_view name : domainNames())
        found = found || name == "fleet";
    EXPECT_TRUE(found);
    EXPECT_FALSE(findDomain("fleet").description.empty());
}

TEST_F(SweepFleetDomainTest, PrepareKeepsTheGrainPinned)
{
    // The per-chunk accumulator sums make the chunk layout observable
    // in the last ulp, so prepare must honour a pinned grain and fill
    // an absolute (not items-relative) default.
    EXPECT_EQ(fleetPlan().grain, 256u);

    SweepPlan defaulted = sweepPlanFromJson(config::JsonValue::parse(
        R"({"domain": "fleet", "config": {
            "regions": [{"profile": "flat", "region": "Iceland"}]}})"));
    findDomain(defaulted.domain).prepare(defaulted);
    EXPECT_EQ(defaulted.grain, 8192u);
    EXPECT_GT(defaulted.items, 0u);
}

TEST_F(SweepFleetDomainTest,
       ShardedMergeIsByteIdenticalToSingleProcess)
{
    const SweepPlan plan = fleetPlan();
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

/** The exact bits of @p value, so signed zeros and NaN payloads
 *  compare too. */
std::uint64_t
bitsOf(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

TEST_F(SweepFleetDomainTest, JobBlockMatchesJobAtBitwise)
{
    // Block lengths 1-9 (the draw pass takes 4 jobs at a time, then
    // one at a time, and the log-normal kernel 4 lanes at a time) and
    // around the replayer's 512-job block, from the stream start and
    // from a non-zero first index, with no, some and every job
    // deferrable, at every SIMD level the log-normal kernel dispatches
    // to.
    for (const util::SimdLevel level : availableSimdLevels()) {
        util::setSimdLevel(level);
        for (const double fraction : {0.0, 0.6, 1.0}) {
            fleet::JobStreamParams params;
            params.seed = 2024;
            params.horizon_hours = 8760.0;
            params.deferrable_fraction = fraction;
            fleet::JobBlock block;
            for (const std::size_t count :
                 {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 511u, 512u, 513u}) {
                for (const std::uint64_t first :
                     {std::uint64_t{0}, std::uint64_t{987'654'321}}) {
                    fleet::jobBlockAt(params, first, count, block);
                    ASSERT_EQ(block.count, count);
                    for (std::size_t i = 0; i < count; ++i) {
                        const fleet::Job job =
                            fleet::jobAt(params, first + i);
                        const std::string label =
                            std::string(util::simdLevelName(level)) +
                            " fraction " + std::to_string(fraction) +
                            " count " + std::to_string(count) + " job " +
                            std::to_string(first + i);
                        EXPECT_EQ(bitsOf(block.arrival_hours[i]),
                                  bitsOf(job.arrival_hours))
                            << label;
                        EXPECT_EQ(bitsOf(block.duration_hours[i]),
                                  bitsOf(job.duration_hours))
                            << label;
                        EXPECT_EQ(bitsOf(block.utilization[i]),
                                  bitsOf(job.utilization))
                            << label;
                        EXPECT_EQ(bitsOf(block.slack_hours[i]),
                                  bitsOf(job.slack_hours))
                            << label;
                        EXPECT_EQ(block.deferrable[i] != 0, job.deferrable)
                            << label;
                    }
                }
            }
        }
    }
}

TEST_F(SweepFleetDomainTest, JobDurationsAreLogNormal)
{
    // With the clamp out of reach, log(duration / median) / log(sigma)
    // is the Box-Muller normal: mean 0, sd 1, and the durations'
    // median is the median parameter.
    fleet::JobStreamParams params;
    params.seed = 5;
    params.median_duration_hours = 100.0;
    params.duration_sigma_factor = 1.5;
    params.max_duration_hours = 1e300;
    constexpr std::size_t kJobs = 100'001;
    fleet::JobBlock block;
    fleet::jobBlockAt(params, 0, kJobs, block);
    double sum = 0.0;
    double sum_squares = 0.0;
    for (std::size_t i = 0; i < kJobs; ++i) {
        ASSERT_GT(block.duration_hours[i], 0.0) << "job " << i;
        const double normal = std::log(block.duration_hours[i] / 100.0) /
                              std::log(1.5);
        sum += normal;
        sum_squares += normal * normal;
    }
    const double mean = sum / kJobs;
    EXPECT_NEAR(mean, 0.0, 0.025);
    EXPECT_NEAR(std::sqrt(sum_squares / kJobs - mean * mean), 1.0, 0.025);
    std::vector<double> sorted = block.duration_hours;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_NEAR(sorted[kJobs / 2], 100.0, 2.0);
}

TEST_F(SweepFleetDomainTest, PlacementGroupsMatchPerScenarioOracle)
{
    // A policy x region x lifetime grid with three lifetimes, so each
    // placement group fans out to several scenarios; the batched
    // replayJobs() must match the retained per-scenario scalar oracle
    // bit-for-bit at every SIMD level, over block-ragged ranges
    // (1500 = 2 x 512 + 476) and a mid-stream offset.
    const fleet::FleetSetup setup = setupFromText(R"({
        "domain": "fleet",
        "items": 1500,
        "seed": 42,
        "config": {
            "pue": 1.3,
            "lifetime_years": [2, 4, 6],
            "policies": ["uniform", "greedy", "deadline", "migrate"],
            "deadline_samples": 6,
            "regions": [
                {"name": "tw-solar", "profile": "solar",
                 "region": "Taiwan", "share": 0.25},
                {"name": "is-flat", "profile": "flat",
                 "region": "Iceland"}
            ],
            "jobs": {"horizon_hours": 48, "max_slack_hours": 12}
        }
    })");
    ASSERT_EQ(setup.scenarios.size(), 24u);
    expectOracleParity(setup, 1500, "placement groups");
}

TEST_F(SweepFleetDomainTest, ZeroSlackStreamMatchesOracle)
{
    // max_slack_hours 0 collapses every shift window to width one
    // (the batched fast path: no argmin at all); migration across
    // regions at shift 0 must still match the oracle exactly.
    const fleet::FleetSetup setup = setupFromText(R"({
        "domain": "fleet",
        "items": 800,
        "seed": 7,
        "config": {
            "lifetime_years": [3, 5],
            "policies": ["uniform", "greedy", "deadline", "migrate"],
            "regions": [
                {"name": "tw-solar", "profile": "solar",
                 "region": "Taiwan", "share": 0.25},
                {"name": "is-flat", "profile": "flat",
                 "region": "Iceland"}
            ],
            "jobs": {"horizon_hours": 48, "max_slack_hours": 0}
        }
    })");
    expectOracleParity(setup, 800, "zero-slack");
}

/** A three-region fleet plan with @p config_fields spliced into its
 *  config object and @p series_fields into every region's series. */
std::string
fleetPlanText(const std::string &config_fields,
              const std::string &series_fields = "")
{
    return R"({"domain": "fleet", "items": 1100, "seed": 11,
        "config": {)" +
           config_fields + R"(,
            "regions": [
                {"name": "tw-solar", "profile": "solar",
                 "region": "Taiwan", "share": 0.25)" +
           series_fields + R"(},
                {"name": "us-wind", "profile": "wind",
                 "region": "United States", "share": 0.3)" +
           series_fields + R"(},
                {"name": "is-flat", "profile": "flat",
                 "region": "Iceland")" +
           series_fields + R"(}
            ]}})";
}

TEST_F(SweepFleetDomainTest, DuplicateLifetimesMatchOracle)
{
    // Equal lifetimes share one running embodied sum; both 4-year
    // columns must still carry the oracle's bits, and the 2-year one
    // its own.
    const fleet::FleetSetup setup = setupFromText(fleetPlanText(R"(
        "lifetime_years": [4, 2, 4],
        "policies": ["uniform", "greedy", "deadline", "migrate"],
        "jobs": {"horizon_hours": 48, "max_slack_hours": 12})"));
    ASSERT_EQ(setup.scenarios.size(), 36u);
    expectOracleParity(setup, 1100, "duplicate lifetimes");
}

TEST_F(SweepFleetDomainTest, WideWindowMatchesOracle)
{
    // 97 shifts, set by max_slack_hours (each job's slack is drawn up
    // to it): the block kernel's scan runs far past its window ends
    // and past several days of the series. A seasonal envelope keeps
    // the series from repeating every 24 h, so the greenest start is
    // often days into the window.
    const fleet::FleetSetup setup = setupFromText(fleetPlanText(
        R"(
        "lifetime_years": [3],
        "policies": ["uniform", "greedy", "deadline", "migrate"],
        "jobs": {"horizon_hours": 600, "max_slack_hours": 96})",
        R"(, "days": 28, "seasonal_amplitude": 0.3)"));
    expectOracleParity(setup, 1100, "wide window");
}

/** A fleet plan of @p regions regions cycling through solar, wind
 *  and flat series, with @p policies (all four by default). */
std::string
regionCountPlanText(
    std::size_t regions,
    const std::string &policies =
        R"(["uniform", "greedy", "deadline", "migrate"])")
{
    const char *series[] = {
        R"({"profile": "solar", "region": "Taiwan", "share": 0.25})",
        R"({"profile": "wind", "region": "United States", "share": 0.3})",
        R"({"profile": "flat", "region": "Iceland"})",
        R"({"profile": "solar", "region": "India", "share": 0.4})",
    };
    std::string list;
    for (std::size_t r = 0; r < regions; ++r) {
        std::string entry = series[r % 4];
        entry.insert(1, R"("name": "r)" + std::to_string(r) + R"(", )");
        list += (r > 0 ? ", " : "") + entry;
    }
    return R"({"domain": "fleet", "items": 600, "seed": 5,
        "config": {"lifetime_years": [4],
            "policies": )" +
           policies + R"(,
            "regions": [)" +
           list + R"(],
            "jobs": {"horizon_hours": 72, "max_slack_hours": 20}}})";
}

TEST_F(SweepFleetDomainTest, RegionCountsAcrossLaneBoundariesMatchOracle)
{
    // The block kernel holds four regions per AVX2 pass: one
    // region, exactly one full pass, one region past it, and a third
    // partial pass must all match the per-region scalar scan.
    for (const std::size_t regions : {1, 4, 5, 9}) {
        const fleet::FleetSetup setup =
            setupFromText(regionCountPlanText(regions));
        ASSERT_EQ(setup.intensity.regions, regions);
        expectOracleParity(setup, 600,
                           std::to_string(regions) + " regions");
    }
}

TEST_F(SweepFleetDomainTest, RepeatedPolicyKindsMatchOracle)
{
    // A policy kind listed twice reads one running sum into two
    // scenario columns per home region, and the migrate winner is
    // chosen across the 4-lane boundary of five regions.
    const fleet::FleetSetup setup = setupFromText(regionCountPlanText(
        5, R"(["migrate", "greedy", "migrate", "uniform", "greedy"])"));
    ASSERT_EQ(setup.scenarios.size(), 25u);
    expectOracleParity(setup, 600, "repeated policy kinds");
}

TEST_F(SweepFleetDomainTest, SlackLongerThanTheSeriesMatchesOracle)
{
    // 60 h of slack over a 24-sample series: the kernel caps each
    // window at 24 shifts, since shift k + 24 costs what shift k does
    // and the strict-< scan keeps the earlier one. The oracle walks
    // every shift.
    const fleet::FleetSetup setup = setupFromText(fleetPlanText(
        R"(
        "lifetime_years": [4],
        "policies": ["uniform", "greedy", "deadline", "migrate"],
        "jobs": {"horizon_hours": 48, "max_slack_hours": 60})",
        R"(, "days": 1)"));
    ASSERT_EQ(setup.intensity.n, 24u);
    expectOracleParity(setup, 1100, "slack longer than the series");
}

TEST_F(SweepFleetDomainTest, IdenticalRegionsKeepTheOraclesTieBreak)
{
    // Two regions with the same series tie at every start. The
    // oracle's home@0 candidate and its strict-< scan keep a job home
    // unless a later start is strictly greener, and then pick the
    // lowest region with that window: a migrating job homed in a never
    // leaves, and one homed in b moves to a exactly when it defers.
    const fleet::FleetSetup setup = setupFromText(R"({
        "domain": "fleet", "items": 900, "seed": 3,
        "config": {
            "lifetime_years": [4],
            "policies": ["migrate"],
            "regions": [
                {"name": "a", "profile": "solar", "region": "Taiwan",
                 "share": 0.25},
                {"name": "b", "profile": "solar", "region": "Taiwan",
                 "share": 0.25}
            ],
            "jobs": {"horizon_hours": 48, "max_slack_hours": 12}
        }
    })");
    expectOracleParity(setup, 900, "identical regions");
    const std::vector<fleet::FleetAccumulator> totals =
        fleet::replayJobs(setup, {0, 900});
    ASSERT_EQ(totals.size(), 2u);
    EXPECT_EQ(totals[0].migrated, 0u);
    EXPECT_GT(totals[0].deferred, 0u);
    EXPECT_EQ(totals[1].deferred, totals[0].deferred);
    EXPECT_EQ(totals[1].migrated, totals[1].deferred);
    EXPECT_EQ(totals[1].operational_g, totals[0].operational_g);
}

TEST_F(SweepFleetDomainTest, TiedAndWrappingJobsMatchOracle)
{
    // Integer series, so equal windows cost equal bits. us-east's day
    // is eu-west's three hours on, so its cheapest window often costs
    // what eu-west's does three starts earlier: the tie goes to the
    // higher region by its earlier start. eu-north equals eu-west, so
    // they tie at the same start and the lower region wins; ap-south
    // costs more everywhere. Arrivals span three days of the one-day
    // series, so many windows wrap its end. Both kinds of job take the
    // block kernel's indexed scan.
    const int west[24] = {102, 140, 97,  131, 88, 120, 105, 93,
                          118, 99,  126, 91,  110, 84, 137, 95,
                          123, 89,  115, 101, 129, 92, 108, 96};
    std::string day;
    std::string east;
    std::string south;
    for (std::size_t i = 0; i < 24; ++i) {
        const std::string sep = i > 0 ? ", " : "";
        day += sep + std::to_string(west[i]);
        east += sep + std::to_string(west[(i + 3) % 24]);
        south += sep + std::to_string(west[i] + 40);
    }
    const auto region = [](const char *name, const std::string &samples) {
        return std::string(R"({"name": ")") + name +
               R"(", "samples_g_per_kwh": [)" + samples + "]}";
    };
    const fleet::FleetSetup setup = setupFromText(
        R"({"domain": "fleet", "items": 1100, "seed": 13,
        "config": {"lifetime_years": [4],
            "policies": ["uniform", "greedy", "deadline", "migrate"],
            "regions": [)" +
        region("ap-south", south) + ", " + region("eu-west", day) + ", " +
        region("us-east", east) + ", " + region("eu-north", day) + R"(],
            "jobs": {"horizon_hours": 72, "max_slack_hours": 12}}})");
    ASSERT_EQ(setup.intensity.n, 24u);
    expectOracleParity(setup, 1100, "tied and wrapping jobs");
}

TEST_F(SweepFleetDomainTest, PartlyCrossRegionGridsMatchOracle)
{
    // Only some policies scan every region: a cross-region policy
    // listed first, a time-only one without a slack window, and one
    // with the widest (greedy) window next to it.
    for (const char *policies :
         {R"(["migrate", "uniform"])", R"(["uniform", "migrate"])",
          R"(["greedy", "migrate"])", R"(["deadline", "migrate"])"}) {
        const fleet::FleetSetup setup =
            setupFromText(fleetPlanText(std::string(R"(
                "lifetime_years": [5, 3],
                "policies": )") + policies + R"(,
                "jobs": {"horizon_hours": 72, "max_slack_hours": 40})"));
        expectOracleParity(setup, 1100, policies);
    }
}

TEST_F(SweepFleetDomainTest, Eq1EvalCountMatchesOracle)
{
    // One Eq. 1 evaluation per job x scenario on both paths, even
    // though the batched path computes one embodied share per
    // distinct lifetime.
    const fleet::FleetSetup setup = setupFromText(fleetPlanText(R"(
        "lifetime_years": [4, 2, 4],
        "policies": ["uniform", "migrate"],
        "jobs": {"horizon_hours": 48, "max_slack_hours": 12})"));
    const util::Counter &evals =
        util::MetricsRegistry::instance().counter("core.eq1.evals");
    const util::IndexRange range{100, 1100};
    const std::uint64_t expected =
        range.size() * setup.scenarios.size();

    std::uint64_t before = evals.value();
    (void)fleet::replayJobs(setup, range);
    EXPECT_EQ(evals.value() - before, expected);
    before = evals.value();
    (void)fleet::replayJobsOracle(setup, range);
    EXPECT_EQ(evals.value() - before, expected);
}

TEST_F(SweepFleetDomainTest, MergedTotalsCoverEveryJobOnce)
{
    const SweepPlan plan = fleetPlan();
    const Domain &domain = findDomain(plan.domain);
    const config::JsonValue doc =
        fullSweepResult(plan, domain.evaluator(plan));
    const std::vector<fleet::FleetAccumulator> totals =
        fleetResultFromPayloads(plan, doc.at("results").asArray());

    // 4 policies x 2 regions x 1 lifetime.
    ASSERT_EQ(totals.size(), 8u);
    for (const fleet::FleetAccumulator &acc : totals) {
        EXPECT_EQ(acc.jobs, plan.items);
        EXPECT_LE(acc.deferred, acc.jobs);
        EXPECT_LE(acc.migrated, acc.jobs);
        EXPECT_GT(acc.operational_g, 0.0);
        EXPECT_GT(acc.embodied_g, 0.0);
        EXPECT_GT(acc.energy_kwh, 0.0);
        EXPECT_GT(acc.busy_hours, 0.0);
        // The counterfactual never beats the chosen placement.
        EXPECT_LE(acc.operational_g, acc.baseline_g);
    }
}

TEST_F(SweepFleetDomainTest, PoliciesBehaveAsDocumented)
{
    const SweepPlan plan = fleetPlan();
    const Domain &domain = findDomain(plan.domain);
    const config::JsonValue doc =
        fullSweepResult(plan, domain.evaluator(plan));
    const std::vector<fleet::FleetAccumulator> totals =
        fleetResultFromPayloads(plan, doc.at("results").asArray());
    const fleet::FleetSetup setup =
        fleet::fleetSetupFromJson(plan.config, plan.seed);
    ASSERT_EQ(setup.scenarios.size(), totals.size());

    for (std::size_t s = 0; s < totals.size(); ++s) {
        const fleet::FleetAccumulator &acc = totals[s];
        switch (setup.scenarios[s].policy.kind) {
        case core::DeferralPolicy::Uniform:
            // Carbon-oblivious: nothing moves.
            EXPECT_EQ(acc.deferred, 0u);
            EXPECT_EQ(acc.migrated, 0u);
            EXPECT_EQ(acc.operational_g, acc.baseline_g);
            break;
        case core::DeferralPolicy::GreedyGreenest:
        case core::DeferralPolicy::DeadlineBounded:
            // Time shifting only, never region shifting.
            EXPECT_EQ(acc.migrated, 0u);
            break;
        case core::DeferralPolicy::GreenestRegion:
            break;
        }
    }

    // On the flat grid there is nothing to gain from time shifting:
    // greedy@is-flat equals uniform@is-flat grams exactly.
    double uniform_flat = -1.0, greedy_flat = -1.0;
    for (std::size_t s = 0; s < totals.size(); ++s) {
        if (setup.scenarios[s].label == "uniform@is-flat/4.00y")
            uniform_flat = totals[s].operational_g;
        if (setup.scenarios[s].label == "greedy@is-flat/4.00y")
            greedy_flat = totals[s].operational_g;
    }
    ASSERT_GE(uniform_flat, 0.0);
    EXPECT_EQ(greedy_flat, uniform_flat);
}

TEST_F(SweepFleetDomainTest, SummarizeListsEveryScenario)
{
    const SweepPlan plan = fleetPlan();
    const Domain &domain = findDomain(plan.domain);
    const config::JsonValue doc =
        fullSweepResult(plan, domain.evaluator(plan));
    const std::string summary =
        domain.summarize(plan, doc.at("results").asArray());
    EXPECT_NE(summary.find("fleet replay, 2000 jobs x 8 scenarios"),
              std::string::npos)
        << summary;
    EXPECT_NE(summary.find("uniform@tw-solar/4.00y"),
              std::string::npos);
    EXPECT_NE(summary.find("migrate@is-flat/4.00y"),
              std::string::npos);
}

TEST_F(SweepFleetDomainTest, PlanReadBackRunsLikeThePreparedPlan)
{
    // `act sweep` runs and summarizes with the setup prepare() parsed;
    // `act merge` reads the plan back from a partial, without one, and
    // parses its own.
    const SweepPlan plan = fleetPlan();
    ASSERT_TRUE(plan.prepared);
    const SweepPlan read_back = sweepPlanFromJson(toJson(plan));
    EXPECT_FALSE(read_back.prepared);
    const Domain &domain = findDomain(plan.domain);
    const config::JsonValue doc =
        fullSweepResult(plan, domain.evaluator(plan));
    const config::JsonArray &results = doc.at("results").asArray();
    EXPECT_EQ(domain.summarize(read_back, results),
              domain.summarize(plan, results));
    EXPECT_EQ(fullSweepResult(read_back, domain.evaluator(read_back))
                  .dump(),
              doc.dump());
}

// ---------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------

class SweepFleetDeathTest : public SweepFleetDomainTest
{
  protected:
    void
    SetUp() override
    {
        ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    }

  public:
    static void
    prepareText(const std::string &text)
    {
        SweepPlan plan =
            sweepPlanFromJson(config::JsonValue::parse(text));
        findDomain(plan.domain).prepare(plan);
    }
};

/** @p text with every POSIX-regex metacharacter escaped. */
std::string
regexEscape(const std::string &text)
{
    std::string out;
    for (const char c : text) {
        if (std::string_view("\\^$.|?*+()[]{}").find(c) !=
            std::string_view::npos)
            out += '\\';
        out += c;
    }
    return out;
}

TEST_F(SweepFleetDeathTest, LifetimeShorterThanAJobFailsLikeTheOracle)
{
    // Lifetimes of about 1.8 h and 0.9 h: the first job longer than
    // the shortest one fails, naming the first listed lifetime it
    // exceeds -- the scenario order the oracle checks in.
    const double lifetimes_years[] = {4.0, 0.0002, 0.0001};
    const fleet::FleetSetup setup = setupFromText(fleetPlanText(R"(
        "lifetime_years": [4, 0.0002, 0.0001],
        "policies": ["uniform", "greedy", "migrate"],
        "jobs": {"horizon_hours": 48, "max_slack_hours": 12})"));

    std::string message;
    for (std::uint64_t index = 0; message.empty() && index < 1100;
         ++index) {
        const double hours = fleet::jobAt(setup.jobs, index).duration_hours;
        for (const double years : lifetimes_years) {
            if (util::hours(hours) > util::years(years)) {
                std::ostringstream out;
                out << "fatal: execution time ("
                    << util::asSeconds(util::hours(hours))
                    << " s) exceeds hardware lifetime ("
                    << util::asSeconds(util::years(years)) << " s)";
                message = out.str();
                break;
            }
        }
    }
    ASSERT_FALSE(message.empty()) << "no job outlives 0.0001 y";

    const util::IndexRange range{0, 1100};
    EXPECT_EXIT((void)fleet::replayJobsOracle(setup, range),
                ::testing::ExitedWithCode(1), regexEscape(message));
    for (const util::SimdLevel level : availableSimdLevels()) {
        util::setSimdLevel(level);
        EXPECT_EXIT((void)fleet::replayJobs(setup, range),
                    ::testing::ExitedWithCode(1), regexEscape(message))
            << util::simdLevelName(level);
    }
}

/** The fleetPlan() result document with chunk 1's scenario 2 entry
 *  edited by @p corrupt. */
template <typename Corrupt>
config::JsonValue
corruptedResults(Corrupt corrupt)
{
    const SweepPlan plan = fleetPlan();
    config::JsonValue doc =
        fullSweepResult(plan, findDomain(plan.domain).evaluator(plan));
    config::JsonArray &results = doc.asObject()["results"].asArray();
    corrupt(results.at(1).asArray().at(2).asObject());
    return doc;
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

/** Folding a corrupted payload must throw naming the chunk, the
 *  scenario and the field: @p message, after that prefix. */
template <typename Corrupt>
void
expectCorruptPayloadThrows(Corrupt corrupt, const std::string &message)
{
    const config::JsonValue doc = corruptedResults(corrupt);
    EXPECT_EQ(errorOf([&] {
                  (void)fleetResultFromPayloads(
                      fleetPlan(), doc.at("results").asArray());
              }),
              "chunk 1 scenario 'greedy@tw-solar/4.00y': " + message);
}

TEST_F(SweepFleetDeathTest, NegativeCountInPartialThrows)
{
    expectCorruptPayloadThrows(
        [](config::JsonObject &entry) {
            entry["jobs"] = config::JsonValue(-1.0);
        },
        "'jobs' must be a non-negative integer (got -1)");
}

TEST_F(SweepFleetDeathTest, FractionalCountInPartialThrows)
{
    expectCorruptPayloadThrows(
        [](config::JsonObject &entry) {
            entry["deferred"] = config::JsonValue(0.5);
        },
        "'deferred' must be a non-negative integer (got 0.5)");
}

TEST_F(SweepFleetDeathTest, HugeCountInPartialThrows)
{
    expectCorruptPayloadThrows(
        [](config::JsonObject &entry) {
            entry["jobs"] = config::JsonValue(1e30);
        },
        "'jobs' must be a non-negative integer (got 1e+30)");
}

TEST_F(SweepFleetDeathTest, StringCountInPartialThrows)
{
    expectCorruptPayloadThrows(
        [](config::JsonObject &entry) {
            entry["migrated"] = config::JsonValue(std::string("12"));
        },
        "'migrated' must be a non-negative integer (got \"12\")");
}

TEST_F(SweepFleetDeathTest, MissingCountInPartialThrows)
{
    expectCorruptPayloadThrows(
        [](config::JsonObject &entry) { entry.erase("jobs"); },
        "missing 'jobs'");
}

TEST_F(SweepFleetDeathTest, NonFiniteSumInPartialThrows)
{
    expectCorruptPayloadThrows(
        [](config::JsonObject &entry) {
            entry["operational_g"] = config::JsonValue(
                std::numeric_limits<double>::infinity());
        },
        "'operational_g' must be a number (got inf)");
    expectCorruptPayloadThrows(
        [](config::JsonObject &entry) {
            entry["baseline_g"] = config::JsonValue(
                std::numeric_limits<double>::quiet_NaN());
        },
        "'baseline_g' must be a number (got nan)");
}

TEST_F(SweepFleetDeathTest, NonArrayChunkPayloadThrows)
{
    const SweepPlan plan = fleetPlan();
    config::JsonValue doc =
        fullSweepResult(plan, findDomain(plan.domain).evaluator(plan));
    doc.asObject()["results"].asArray().at(3) = config::JsonValue(7.0);
    EXPECT_EQ(errorOf([&] {
                  (void)fleetResultFromPayloads(
                      plan, doc.at("results").asArray());
              }),
              "chunk 3: payload must be an array of 8 scenario "
              "accumulators");
}

/** The JsonTypeError message preparing the fleet plan @p config
 *  throws. */
std::string
prepareError(const std::string &config)
{
    return errorOf([&] {
        SweepFleetDeathTest::prepareText(
            R"({"domain": "fleet", "config": )" + config + "}");
    });
}

TEST_F(SweepFleetDeathTest, MissingRegionsThrows)
{
    EXPECT_EQ(prepareError("{}"), "missing 'regions'");
}

TEST_F(SweepFleetDeathTest, SubUnityPueThrows)
{
    EXPECT_EQ(prepareError(R"({"pue": 0.5, "regions": [
                  {"profile": "flat", "region": "Iceland"}]})"),
              "'pue' must be a number >= 1 (got 0.5)");
}

TEST_F(SweepFleetDeathTest, MismatchedRegionSeriesThrow)
{
    EXPECT_EQ(prepareError(R"({"regions": [
                  {"profile": "flat", "region": "Iceland"},
                  {"profile": "flat", "region": "Taiwan", "days": 2}]})"),
              "regions[1]: series of 48 x 1 h must match regions[0]'s "
              "24 x 1 h");
}

TEST_F(SweepFleetDeathTest, OverflowingRegionSeriesThrows)
{
    // A sample total of inf made every window cost inf - inf = NaN,
    // and the run only failed when the NaN reached the JSON writer.
    std::string huge = "1e308";
    for (int i = 1; i < 24; ++i)
        huge += ", 1e308";
    EXPECT_EQ(prepareError(R"({"regions": [
                  {"profile": "flat", "region": "Iceland"},
                  {"samples_g_per_kwh": [)" + huge + R"(]}]})"),
              "regions[1]: the series must sum to a finite number of "
              "g CO2/kWh (got inf)");
}

TEST_F(SweepFleetDeathTest, UnknownPolicyIsFatal)
{
    EXPECT_EXIT(prepareText(R"({"domain": "fleet", "config": {
                    "policies": ["psychic"], "regions": [
                        {"profile": "flat", "region": "Iceland"}]}})"),
                ::testing::ExitedWithCode(1), "policy");
}

TEST_F(SweepFleetDeathTest, NonPositiveLifetimeThrows)
{
    EXPECT_EQ(prepareError(R"({"lifetime_years": [4, 0], "regions": [
                  {"profile": "flat", "region": "Iceland"}]})"),
              "'lifetime_years[1]' must be a number > 0 (got 0)");
}

TEST_F(SweepFleetDeathTest, DeadlineSamplesIsAPositiveCount)
{
    // 1e300 used to overflow its size_t cast and run.
    for (const char *deadline : {"-3", "0", "2.5", "1e+300"}) {
        EXPECT_EQ(prepareError(std::string(R"({"deadline_samples": )") +
                               deadline + R"(, "regions": [
                      {"profile": "flat", "region": "Iceland"}]})"),
                  std::string("'deadline_samples' must be an integer >= 1 "
                              "(got ") +
                      deadline + ")");
    }
}

TEST_F(SweepFleetDeathTest, MalformedJobStreamThrows)
{
    EXPECT_EQ(prepareError(R"({"jobs": {"horizon_hours": -1}, "regions": [
                  {"profile": "flat", "region": "Iceland"}]})"),
              "jobs: 'horizon_hours' must be a number > 0 (got -1)");
}

TEST_F(SweepFleetDeathTest, HoursPast2To53SamplesThrow)
{
    // Each of these used to overflow a double -> size_t cast and run:
    // a slack of one shift, arrival samples past 2^64, a duration's
    // whole-sample count past 2^64.
    const char *cases[][3] = {
        {R"("max_slack_hours": 1e25)", "max_slack_hours", "1e+25"},
        {R"("horizon_hours": 1e30)", "horizon_hours", "1e+30"},
        {R"("median_duration_hours": 1e25, "max_duration_hours": 1e25)",
         "median_duration_hours", "1e+25"},
        {R"("max_duration_hours": 1e25)", "max_duration_hours", "1e+25"},
    };
    for (const auto &[fields, field, value] : cases) {
        EXPECT_EQ(prepareError(std::string(R"({"lifetime_years": [1e300],
                      "jobs": {)") + fields + R"(}, "regions": [
                      {"profile": "flat", "region": "Iceland"}]})"),
                  std::string("jobs: '") + field +
                      "' must be at most 2^53 samples of 1 h (got " +
                      value + ")");
    }
    // 2^53 samples exactly is still accepted.
    EXPECT_EQ(prepareError(R"({"jobs": {"max_slack_hours": 9007199254740992},
                  "regions": [{"profile": "flat", "region": "Iceland"}]})"),
              "");
}

TEST_F(SweepFleetDeathTest, UnitSigmaFactorThrows)
{
    // A sigma factor of 1 is no spread at all; the plan is refused at
    // load instead of on the first worker that draws a duration.
    EXPECT_EQ(prepareError(R"({"jobs": {"duration_sigma_factor": 1},
                  "regions": [{"profile": "flat", "region": "Iceland"}]})"),
              "jobs: 'duration_sigma_factor' must be a number > 1 "
              "(got 1)");
}

TEST_F(SweepFleetDeathTest, DegenerateDurationDistributionIsFatal)
{
    // Params built in code skip the JSON bounds; both job generators
    // still refuse them, naming the fields.
    const std::string message =
        "fatal: job stream needs median_duration_hours > 0 and "
        "duration_sigma_factor > 1";
    fleet::JobStreamParams unit_sigma;
    unit_sigma.duration_sigma_factor = 1.0;
    fleet::JobStreamParams zero_median;
    zero_median.median_duration_hours = 0.0;
    for (const fleet::JobStreamParams &params : {unit_sigma, zero_median}) {
        EXPECT_EXIT((void)fleet::jobAt(params, 0),
                    ::testing::ExitedWithCode(1), message);
        fleet::JobBlock block;
        EXPECT_EXIT(fleet::jobBlockAt(params, 0, 4, block),
                    ::testing::ExitedWithCode(1), message);
    }
}

} // namespace
} // namespace act::sweep

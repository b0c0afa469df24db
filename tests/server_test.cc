/** @file Tests for the data-center server carbon accounting module. */

#include <gtest/gtest.h>

#include "server/datacenter.h"

namespace act::server {
namespace {

const core::FabParams kFab;

TEST(ServerPlatform, DellR740EmbodiedFromBom)
{
    const ServerPlatform platform = dellR740Platform(kFab);
    // The R740 BOM (2x Xeon + 384 GB DDR4 + 31 TB NAND) lands in the
    // hundreds of kilograms.
    EXPECT_GT(util::asKilograms(platform.embodied), 250.0);
    EXPECT_LT(util::asKilograms(platform.embodied), 500.0);
    EXPECT_GT(util::asWatts(platform.peak_power),
              util::asWatts(platform.idle_power));
}

TEST(ServerPlatform, PowerModelInterpolatesLinearly)
{
    const ServerPlatform platform = dellR740Platform(kFab);
    EXPECT_DOUBLE_EQ(
        util::asWatts(powerAtUtilization(platform, 0.0)), 120.0);
    EXPECT_DOUBLE_EQ(
        util::asWatts(powerAtUtilization(platform, 1.0)), 500.0);
    EXPECT_DOUBLE_EQ(
        util::asWatts(powerAtUtilization(platform, 0.5)), 310.0);
    EXPECT_EXIT(powerAtUtilization(platform, 1.5),
                ::testing::ExitedWithCode(1), "");
}

TEST(Datacenter, AnnualFootprintCombinesBothTerms)
{
    const ServerPlatform platform = dellR740Platform(kFab);
    DatacenterParams dc;
    const auto footprint = annualFootprint(platform, dc);

    // Operational: 310 W * PUE 1.2 * 1 year at 300 g/kWh.
    const double expected_op_kg =
        0.310 * 1.2 * 24.0 * 365.0 * 300.0 / 1000.0;
    EXPECT_NEAR(util::asKilograms(footprint.operational),
                expected_op_kg, 0.5);
    // Embodied: one quarter of the platform footprint per year of a
    // 4-year life.
    EXPECT_NEAR(util::asGrams(footprint.embodied_allocated),
                util::asGrams(platform.embodied) / 4.0, 1e-6);
}

TEST(Datacenter, PueScalesOnlyOperational)
{
    const ServerPlatform platform = dellR740Platform(kFab);
    DatacenterParams lean;
    lean.pue = 1.1;
    DatacenterParams heavy;
    heavy.pue = 2.0;
    const auto a = annualFootprint(platform, lean);
    const auto b = annualFootprint(platform, heavy);
    EXPECT_NEAR(util::asGrams(b.operational) /
                    util::asGrams(a.operational),
                2.0 / 1.1, 1e-9);
    EXPECT_DOUBLE_EQ(util::asGrams(a.embodied_allocated),
                     util::asGrams(b.embodied_allocated));
}

TEST(Datacenter, JobFootprintScalesWithDuration)
{
    const ServerPlatform platform = dellR740Platform(kFab);
    DatacenterParams dc;
    const auto one_hour = jobFootprint(platform, dc, util::hours(1.0));
    const auto two_hours = jobFootprint(platform, dc, util::hours(2.0));
    EXPECT_NEAR(util::asGrams(two_hours.total()),
                2.0 * util::asGrams(one_hour.total()), 1e-6);
}

TEST(Datacenter, GreenGridRaisesEmbodiedShare)
{
    const ServerPlatform platform = dellR740Platform(kFab);
    DatacenterParams brown;
    brown.grid = core::OperationalParams::forSource(
        data::EnergySource::Coal);
    DatacenterParams green;
    green.grid = core::OperationalParams::forSource(
        data::EnergySource::Wind);
    const auto dirty = annualFootprint(platform, brown);
    const auto clean = annualFootprint(platform, green);
    EXPECT_LT(dirty.embodiedShare(), clean.embodiedShare());
    EXPECT_GT(clean.embodiedShare(), 0.5);
}

TEST(Refresh, SweepFindsInteriorOptimum)
{
    const ServerPlatform platform = dellR740Platform(kFab);
    DatacenterParams dc;
    const auto sweep = refreshSweep(platform, dc);
    ASSERT_EQ(sweep.size(), 12u);
    const std::size_t best = core::optimalReplacementIndex(sweep);
    // With slow server efficiency growth, refreshing yearly is clearly
    // wasteful and holding forever is not optimal either.
    EXPECT_GE(sweep[best].lifetime_years, 2.0);
    EXPECT_GT(util::asGrams(sweep.front().total()),
              util::asGrams(sweep[best].total()));
}

TEST(Refresh, GreenGridExtendsOptimalLifetime)
{
    // A renewable grid shrinks the operational penalty of aging, so
    // servers should be kept at least as long.
    const ServerPlatform platform = dellR740Platform(kFab);
    DatacenterParams brown;
    brown.grid = core::OperationalParams::forSource(
        data::EnergySource::Coal);
    DatacenterParams green;
    green.grid = core::OperationalParams::forSource(
        data::EnergySource::Wind);
    const auto dirty = refreshSweep(platform, brown);
    const auto clean = refreshSweep(platform, green);
    EXPECT_GE(clean[core::optimalReplacementIndex(clean)].lifetime_years,
              dirty[core::optimalReplacementIndex(dirty)]
                  .lifetime_years);
}

TEST(Datacenter, ParameterValidation)
{
    const ServerPlatform platform = dellR740Platform(kFab);
    DatacenterParams dc;
    dc.pue = 0.9;
    EXPECT_EXIT(annualFootprint(platform, dc),
                ::testing::ExitedWithCode(1), "");
    dc = DatacenterParams{};
    dc.utilization = 1.5;
    EXPECT_EXIT(annualFootprint(platform, dc),
                ::testing::ExitedWithCode(1), "");
    dc = DatacenterParams{};
    dc.lifetime = util::years(0.0);
    EXPECT_EXIT(annualFootprint(platform, dc),
                ::testing::ExitedWithCode(1), "");
}

TEST(Replacement, GenericModelValidation)
{
    core::ReplacementParams params;
    params.embodied_per_unit = util::kilograms(100.0);
    params.first_year_energy = util::kilowattHours(1000.0);
    EXPECT_EXIT(core::evaluateReplacement(params, 0.0),
                ::testing::ExitedWithCode(1), "");
    params.annual_efficiency_improvement = 1.0;
    EXPECT_EXIT(core::evaluateReplacement(params, 3.0),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(core::replacementSweep(params, 0),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(core::optimalReplacementIndex({}),
                ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace act::server

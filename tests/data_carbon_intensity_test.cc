/** @file Tests for Tables 5/6 data and the renewable blend. */

#include <gtest/gtest.h>

#include "data/carbon_intensity_db.h"

namespace act::data {
namespace {

using util::CarbonIntensity;

TEST(Table5, ExactSourceIntensities)
{
    EXPECT_DOUBLE_EQ(sourceIntensity(EnergySource::Coal).value(), 820.0);
    EXPECT_DOUBLE_EQ(sourceIntensity(EnergySource::Gas).value(), 490.0);
    EXPECT_DOUBLE_EQ(sourceIntensity(EnergySource::Biomass).value(),
                     230.0);
    EXPECT_DOUBLE_EQ(sourceIntensity(EnergySource::Solar).value(), 41.0);
    EXPECT_DOUBLE_EQ(sourceIntensity(EnergySource::Geothermal).value(),
                     38.0);
    EXPECT_DOUBLE_EQ(sourceIntensity(EnergySource::Hydropower).value(),
                     24.0);
    EXPECT_DOUBLE_EQ(sourceIntensity(EnergySource::Nuclear).value(),
                     12.0);
    EXPECT_DOUBLE_EQ(sourceIntensity(EnergySource::Wind).value(), 11.0);
    EXPECT_DOUBLE_EQ(sourceIntensity(EnergySource::CarbonFree).value(),
                     0.0);
}

TEST(Table6, ExactRegionIntensities)
{
    EXPECT_DOUBLE_EQ(regionIntensity(Region::World).value(), 301.0);
    EXPECT_DOUBLE_EQ(regionIntensity(Region::India).value(), 725.0);
    EXPECT_DOUBLE_EQ(regionIntensity(Region::Australia).value(), 597.0);
    EXPECT_DOUBLE_EQ(regionIntensity(Region::Taiwan).value(), 583.0);
    EXPECT_DOUBLE_EQ(regionIntensity(Region::Singapore).value(), 495.0);
    EXPECT_DOUBLE_EQ(regionIntensity(Region::UnitedStates).value(),
                     380.0);
    EXPECT_DOUBLE_EQ(regionIntensity(Region::Europe).value(), 295.0);
    EXPECT_DOUBLE_EQ(regionIntensity(Region::Brazil).value(), 82.0);
    EXPECT_DOUBLE_EQ(regionIntensity(Region::Iceland).value(), 28.0);
}

TEST(Table5, TableOrderAndSize)
{
    const auto table = energySourceTable();
    ASSERT_EQ(table.size(), 9u);
    EXPECT_EQ(table.front().name, "coal");
    // Renewable sources report longer energy-payback than fossil.
    EXPECT_GT(table[3].payback_months, table[0].payback_months);
}

TEST(Table6, DominantSources)
{
    for (const auto &record : regionTable()) {
        EXPECT_FALSE(record.name.empty());
        EXPECT_FALSE(record.dominant_source.empty());
    }
}

TEST(Lookup, ByNameIsCaseInsensitive)
{
    EXPECT_EQ(regionByName("taiwan"), Region::Taiwan);
    EXPECT_EQ(regionByName("United States"), Region::UnitedStates);
}

TEST(Lookup, UnknownNamesAreFatal)
{
    EXPECT_EXIT(regionByName("atlantis"), ::testing::ExitedWithCode(1),
                "");
}

TEST(Blend, RenewableBlendInterpolates)
{
    const CarbonIntensity taiwan = regionIntensity(Region::Taiwan);
    EXPECT_DOUBLE_EQ(renewableBlend(taiwan, 0.0).value(), 583.0);
    EXPECT_DOUBLE_EQ(renewableBlend(taiwan, 1.0).value(), 41.0);
    EXPECT_DOUBLE_EQ(renewableBlend(taiwan, 0.25).value(),
                     0.75 * 583.0 + 0.25 * 41.0);
}

TEST(Blend, RejectsOutOfRangeShare)
{
    EXPECT_EXIT(renewableBlend(regionIntensity(Region::Taiwan), 1.5),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(renewableBlend(regionIntensity(Region::Taiwan), -0.1),
                ::testing::ExitedWithCode(1), "");
}

TEST(Defaults, PaperBaselines)
{
    // Paper default fab: Taiwan grid + 25% solar procurement.
    EXPECT_NEAR(defaultFabIntensity().value(), 447.5, 1e-9);
    // Paper Section 6 use-phase default: 300 g/kWh US average.
    EXPECT_DOUBLE_EQ(defaultUseIntensity().value(), 300.0);
}

/** Property: blending never leaves the [renewable, base] interval. */
class BlendRange : public ::testing::TestWithParam<double> {};

TEST_P(BlendRange, StaysInInterval)
{
    const double share = GetParam();
    const CarbonIntensity blended =
        renewableBlend(regionIntensity(Region::India), share);
    EXPECT_GE(blended.value(), 41.0);
    EXPECT_LE(blended.value(), 725.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BlendRange,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.9,
                                           1.0));

} // namespace
} // namespace act::data

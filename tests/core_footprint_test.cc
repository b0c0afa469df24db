/** @file Tests for Eq. 1/2: operational footprint and CF combination. */

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/footprint.h"
#include "core/operational.h"
#include "util/metrics.h"

namespace act::core {
namespace {

using util::asGrams;
using util::grams;
using util::kilowattHours;
using util::milliseconds;
using util::watts;
using util::years;

TEST(Operational, Eq2Basic)
{
    const OperationalParams params =
        OperationalParams::withIntensity(util::gramsPerKilowattHour(
            300.0));
    EXPECT_DOUBLE_EQ(
        asGrams(operationalFootprint(kilowattHours(2.0), params)), 600.0);
}

TEST(Operational, Table4CpuInference)
{
    // 6.6 W x 6 ms at 300 g/kWh = 3.3 ug CO2 (Table 4, CPU row).
    const OperationalParams params;
    const util::Mass opcf =
        operationalFootprint(watts(6.6) * milliseconds(6.0), params);
    EXPECT_NEAR(util::asMicrograms(opcf), 3.3, 0.01);
}

TEST(Operational, UtilizationEffectivenessScalesGridEnergy)
{
    OperationalParams pue;
    pue.utilization_effectiveness = 1.5;  // data-center PUE
    const OperationalParams ideal;
    EXPECT_DOUBLE_EQ(
        asGrams(operationalFootprint(kilowattHours(1.0), pue)),
        1.5 * asGrams(operationalFootprint(kilowattHours(1.0), ideal)));
}

TEST(Operational, SubUnityEffectivenessIsFatal)
{
    OperationalParams params;
    params.utilization_effectiveness = 0.8;
    EXPECT_EXIT(operationalFootprint(kilowattHours(1.0), params),
                ::testing::ExitedWithCode(1), "");
}

TEST(Operational, RegionAndSourceFactories)
{
    EXPECT_DOUBLE_EQ(
        OperationalParams::forRegion(data::Region::Iceland).ci_use.value(),
        28.0);
    EXPECT_DOUBLE_EQ(OperationalParams::forSource(
                         data::EnergySource::CarbonFree)
                         .ci_use.value(),
                     0.0);
}

TEST(Footprint, Eq1AmortizesEmbodiedByLifetimeShare)
{
    // T = 1 year of a 4-year lifetime charges 25% of the embodied CF.
    const CarbonFootprint cf = combineFootprint(
        grams(100.0), grams(400.0), years(1.0), years(4.0));
    EXPECT_DOUBLE_EQ(asGrams(cf.operational), 100.0);
    EXPECT_DOUBLE_EQ(asGrams(cf.embodied_allocated), 100.0);
    EXPECT_DOUBLE_EQ(asGrams(cf.total()), 200.0);
    EXPECT_DOUBLE_EQ(cf.embodiedShare(), 0.5);
}

TEST(Footprint, WholeLifetime)
{
    const CarbonFootprint cf =
        lifetimeFootprint(grams(10.0), grams(30.0));
    EXPECT_DOUBLE_EQ(asGrams(cf.total()), 40.0);
    EXPECT_DOUBLE_EQ(cf.embodiedShare(), 0.75);
}

TEST(Footprint, ZeroTotalHasZeroShare)
{
    const CarbonFootprint cf = lifetimeFootprint(grams(0.0), grams(0.0));
    EXPECT_DOUBLE_EQ(cf.embodiedShare(), 0.0);
}

TEST(Footprint, InvalidTimesAreFatal)
{
    EXPECT_EXIT(combineFootprint(grams(1.0), grams(1.0), years(1.0),
                                 years(0.0)),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(combineFootprint(grams(1.0), grams(1.0), years(-1.0),
                                 years(3.0)),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(combineFootprint(grams(1.0), grams(1.0), years(4.0),
                                 years(3.0)),
                ::testing::ExitedWithCode(1), "");
}

TEST(Footprint, AmortizerMatchesCombineFootprintBitwise)
{
    // Odd durations and lifetimes, so T / LT is inexact and any
    // reassociation would show in the last bit.
    const double embodied_g = 1234567.891;
    for (const double lifetime_years : {2.0, 3.7, 4.0}) {
        const Eq1Amortizer amortizer(years(lifetime_years));
        for (const double hours : {0.0, 0.1, 1.0 / 3.0, 7.25, 123.4}) {
            const CarbonFootprint expected = combineFootprint(
                grams(0.0), grams(embodied_g), util::hours(hours),
                years(lifetime_years));
            EXPECT_EQ(asGrams(amortizer.allocateEmbodied(
                          grams(embodied_g), util::hours(hours))),
                      asGrams(expected.embodied_allocated))
                << hours << " h of " << lifetime_years << " y";
        }
    }
}

TEST(Footprint, AmortizerCountsNothingAndBulkCountAdds)
{
    const util::Counter &evals =
        util::MetricsRegistry::instance().counter("core.eq1.evals");
    const Eq1Amortizer amortizer(years(4.0));
    const std::uint64_t before = evals.value();
    (void)amortizer.allocateEmbodied(grams(1.0), years(1.0));
    EXPECT_EQ(evals.value(), before);
    countEq1Evals(12);
    EXPECT_EQ(evals.value(), before + 12);
}

TEST(Footprint, AmortizerFatalsMatchCombineFootprint)
{
    const Eq1Amortizer amortizer(years(3.0));
    EXPECT_EXIT(
        amortizer.allocateEmbodied(grams(1.0), years(-1.0)),
        ::testing::ExitedWithCode(1),
        "fatal: execution time must be non-negative");
    EXPECT_EXIT(
        combineFootprint(grams(1.0), grams(1.0), years(-1.0), years(3.0)),
        ::testing::ExitedWithCode(1),
        "fatal: execution time must be non-negative");
    // Same message, same numbers, from both paths.
    const std::string exceeds =
        "fatal: execution time \\(1\\.26144e\\+08 s\\) exceeds "
        "hardware lifetime \\(9\\.4608e\\+07 s\\)";
    EXPECT_EXIT(amortizer.allocateEmbodied(grams(1.0), years(4.0)),
                ::testing::ExitedWithCode(1), exceeds);
    EXPECT_EXIT(
        combineFootprint(grams(1.0), grams(1.0), years(4.0), years(3.0)),
        ::testing::ExitedWithCode(1), exceeds);
    EXPECT_EXIT(Eq1Amortizer(years(0.0)), ::testing::ExitedWithCode(1),
                "fatal: hardware lifetime must be positive");
}

/** Property: CF is linear in T for fixed OPCF rate and ECF. */
class FootprintLinearity : public ::testing::TestWithParam<double> {};

TEST_P(FootprintLinearity, EmbodiedShareGrowsWithT)
{
    const double t_years = GetParam();
    const CarbonFootprint cf = combineFootprint(
        grams(0.0), grams(1000.0), years(t_years), years(10.0));
    EXPECT_NEAR(asGrams(cf.embodied_allocated), 100.0 * t_years, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FootprintLinearity,
                         ::testing::Values(0.0, 0.5, 1.0, 2.5, 5.0,
                                           10.0));

} // namespace
} // namespace act::core

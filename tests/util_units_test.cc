/**
 * @file
 * Unit tests for the strongly-typed quantity system: constructors,
 * accessors, arithmetic, and the cross-dimension products the ACT
 * model relies on.
 */

#include <gtest/gtest.h>

#include "util/units.h"

namespace act::util {
namespace {

TEST(Units, MassConstructorsAgree)
{
    EXPECT_DOUBLE_EQ(asGrams(kilograms(1.0)), 1000.0);
    EXPECT_DOUBLE_EQ(asKilograms(grams(500.0)), 0.5);
    EXPECT_DOUBLE_EQ(asMicrograms(grams(1.0)), 1e6);
}

TEST(Units, EnergyConstructorsAgree)
{
    EXPECT_DOUBLE_EQ(asJoules(kilowattHours(1.0)), 3.6e6);
    EXPECT_DOUBLE_EQ(asKilowattHours(joules(3.6e6)), 1.0);
    EXPECT_DOUBLE_EQ(asMillijoules(joules(0.042)), 42.0);
}

TEST(Units, AreaConstructorsAgree)
{
    EXPECT_DOUBLE_EQ(asSquareCentimeters(squareMillimeters(100.0)), 1.0);
    EXPECT_DOUBLE_EQ(asSquareMillimeters(squareCentimeters(2.0)), 200.0);
}

TEST(Units, DurationConstructorsAgree)
{
    EXPECT_DOUBLE_EQ(asSeconds(milliseconds(1500.0)), 1.5);
    EXPECT_DOUBLE_EQ(asSeconds(hours(2.0)), 7200.0);
    EXPECT_DOUBLE_EQ(asYears(years(3.0)), 3.0);
    EXPECT_DOUBLE_EQ(asSeconds(years(1.0)), 365.0 * 86400.0);
}

TEST(Units, Capacity)
{
    EXPECT_DOUBLE_EQ(asGigabytes(terabytes(2.0)), 2000.0);
}

TEST(Units, SameDimensionArithmetic)
{
    const Mass a = grams(10.0);
    const Mass b = grams(4.0);
    EXPECT_DOUBLE_EQ(asGrams(a + b), 14.0);
    EXPECT_DOUBLE_EQ(asGrams(a - b), 6.0);
    EXPECT_DOUBLE_EQ(asGrams(a * 2.5), 25.0);
    EXPECT_DOUBLE_EQ(asGrams(2.5 * a), 25.0);
    EXPECT_DOUBLE_EQ(asGrams(a / 2.0), 5.0);
    EXPECT_DOUBLE_EQ(a / b, 2.5);
    EXPECT_DOUBLE_EQ(asGrams(-a), -10.0);
}

TEST(Units, CompoundAssignment)
{
    Mass m = grams(1.0);
    m += grams(2.0);
    m -= grams(0.5);
    m *= 4.0;
    EXPECT_DOUBLE_EQ(asGrams(m), 10.0);
}

TEST(Units, Comparisons)
{
    EXPECT_LT(grams(1.0), grams(2.0));
    EXPECT_GT(kilograms(1.0), grams(999.0));
    EXPECT_EQ(grams(5.0), grams(5.0));
    EXPECT_LE(grams(5.0), grams(5.0));
}

TEST(Units, OperationalProductEq2)
{
    // OPCF = CI_use x Energy: 300 g/kWh x 2 kWh = 600 g.
    const Mass opcf = gramsPerKilowattHour(300.0) * kilowattHours(2.0);
    EXPECT_DOUBLE_EQ(asGrams(opcf), 600.0);
    EXPECT_DOUBLE_EQ(
        asGrams(kilowattHours(2.0) * gramsPerKilowattHour(300.0)), 600.0);
}

TEST(Units, EmbodiedAreaProductEq4)
{
    // 1000 g/cm2 x 150 mm2 = 1500 g.
    const Mass mass = gramsPerCm2(1000.0) * squareMillimeters(150.0);
    EXPECT_DOUBLE_EQ(asGrams(mass), 1500.0);
}

TEST(Units, CapacityProductEq6)
{
    const Mass mass = gramsPerGigabyte(48.0) * gigabytes(8.0);
    EXPECT_DOUBLE_EQ(asGrams(mass), 384.0);
}

TEST(Units, FabEnergyPerAreaConversion)
{
    // CI_fab x EPA: 500 g/kWh x 2 kWh/cm2 = 1000 g/cm2.
    const CarbonPerArea cpa =
        gramsPerKilowattHour(500.0) * kilowattHoursPerCm2(2.0);
    EXPECT_DOUBLE_EQ(cpa.value(), 1000.0);
    const Energy fab_energy =
        kilowattHoursPerCm2(2.0) * squareCentimeters(3.0);
    EXPECT_DOUBLE_EQ(asKilowattHours(fab_energy), 6.0);
}

TEST(Units, PowerTimeProduct)
{
    // 6.6 W x 6 ms = 39.6 mJ (the paper's Table 4 CPU energy).
    const Energy energy = watts(6.6) * milliseconds(6.0);
    EXPECT_NEAR(asMillijoules(energy), 39.6, 1e-9);
    EXPECT_NEAR(asWatts(energy / milliseconds(6.0)), 6.6, 1e-9);
}

TEST(Units, PerUnitRecovery)
{
    EXPECT_DOUBLE_EQ((grams(100.0) / squareCentimeters(2.0)).value(),
                     50.0);
    EXPECT_DOUBLE_EQ((grams(100.0) / gigabytes(4.0)).value(), 25.0);
    EXPECT_DOUBLE_EQ((grams(100.0) / kilowattHours(0.5)).value(), 200.0);
}

/** Round-trip property: natural-unit accessors invert constructors. */
class UnitsRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(UnitsRoundTrip, MassEnergyAreaDuration)
{
    const double v = GetParam();
    EXPECT_NEAR(asKilograms(kilograms(v)), v, 1e-12 * std::abs(v));
    EXPECT_NEAR(asJoules(joules(v)), v, 1e-9 * std::abs(v));
    EXPECT_NEAR(asSquareMillimeters(squareMillimeters(v)), v,
                1e-12 * std::abs(v));
    EXPECT_NEAR(asMilliseconds(milliseconds(v)), v, 1e-12 * std::abs(v));
    EXPECT_NEAR(asYears(years(v)), v, 1e-12 * std::abs(v));
}

INSTANTIATE_TEST_SUITE_P(Sweep, UnitsRoundTrip,
                         ::testing::Values(0.0, 1e-6, 0.25, 1.0, 42.0,
                                           1e3, 1e9));

} // namespace
} // namespace act::util

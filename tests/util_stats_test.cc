/** @file Unit tests for the statistics helpers. */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "util/stats.h"

namespace act::util {
namespace {

TEST(Stats, Mean)
{
    const std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(values), 2.5);
}

TEST(Stats, GeomeanMatchesClosedForm)
{
    const std::vector<double> values = {1.0, 4.0, 16.0};
    EXPECT_NEAR(geomean(values), 4.0, 1e-12);
}

TEST(Stats, GeomeanIsBelowMeanForDispersedValues)
{
    const std::vector<double> values = {1.0, 100.0};
    EXPECT_LT(geomean(values), mean(values));
}

TEST(Stats, GeomeanRejectsNonPositive)
{
    const std::vector<double> values = {1.0, 0.0};
    EXPECT_EXIT(geomean(values), ::testing::ExitedWithCode(1), "");
}

TEST(Stats, EmptyRangesAreFatal)
{
    const std::vector<double> empty;
    EXPECT_EXIT(mean(empty), ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(geomean(empty), ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(argmin(empty), ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(argmax(empty), ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(minValue(empty), ::testing::ExitedWithCode(1), "");
}

TEST(Stats, StddevOfConstantIsZero)
{
    const std::vector<double> values = {3.0, 3.0, 3.0};
    EXPECT_DOUBLE_EQ(stddev(values), 0.0);
}

TEST(Stats, StddevKnownValue)
{
    const std::vector<double> values = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0,
                                        7.0, 9.0};
    EXPECT_NEAR(stddev(values), 2.0, 1e-12);
}

TEST(Stats, ArgminArgmaxAndExtremes)
{
    const std::vector<double> values = {3.0, 1.0, 4.0, 1.5, 9.0, 2.0};
    EXPECT_EQ(argmin(values), 1u);
    EXPECT_EQ(argmax(values), 4u);
    EXPECT_DOUBLE_EQ(minValue(values), 1.0);
    EXPECT_DOUBLE_EQ(maxValue(values), 9.0);
}

TEST(Stats, NormalizeBy)
{
    const std::vector<double> values = {2.0, 4.0, 8.0};
    const auto normalized = normalizeBy(values, 4.0);
    ASSERT_EQ(normalized.size(), 3u);
    EXPECT_DOUBLE_EQ(normalized[0], 0.5);
    EXPECT_DOUBLE_EQ(normalized[1], 1.0);
    EXPECT_DOUBLE_EQ(normalized[2], 2.0);
}

TEST(Stats, NormalizeByZeroIsFatal)
{
    const std::vector<double> values = {1.0};
    EXPECT_EXIT(normalizeBy(values, 0.0), ::testing::ExitedWithCode(1),
                "");
}

/** Property: geomean is scale-equivariant: geomean(k*x) = k*geomean(x). */
class GeomeanScale : public ::testing::TestWithParam<double> {};

TEST_P(GeomeanScale, ScaleEquivariance)
{
    const double k = GetParam();
    const std::vector<double> values = {1.3, 2.7, 8.1, 0.4};
    std::vector<double> scaled;
    for (double v : values)
        scaled.push_back(k * v);
    EXPECT_NEAR(geomean(scaled), k * geomean(values),
                1e-9 * k * geomean(values));
}

INSTANTIATE_TEST_SUITE_P(Sweep, GeomeanScale,
                         ::testing::Values(0.001, 0.5, 1.0, 7.0, 1e4));

} // namespace
} // namespace act::util

/** @file Unit tests for the statistics helpers. */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "util/stats.h"

namespace act::util {
namespace {

TEST(Stats, GeomeanMatchesClosedForm)
{
    const std::vector<double> values = {1.0, 4.0, 16.0};
    EXPECT_NEAR(geomean(values), 4.0, 1e-12);
}

TEST(Stats, GeomeanIsBelowMeanForDispersedValues)
{
    const std::vector<double> values = {1.0, 100.0};
    EXPECT_LT(geomean(values), 50.5);  // the arithmetic mean
}

TEST(Stats, GeomeanRejectsNonPositive)
{
    const std::vector<double> values = {1.0, 0.0};
    EXPECT_EXIT(geomean(values), ::testing::ExitedWithCode(1), "");
}

TEST(Stats, EmptyRangeIsFatal)
{
    const std::vector<double> empty;
    EXPECT_EXIT(geomean(empty), ::testing::ExitedWithCode(1), "");
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

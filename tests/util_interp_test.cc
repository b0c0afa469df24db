/** @file Unit tests for interpolation helpers. */

#include <gtest/gtest.h>

#include "util/interp.h"

namespace act::util {
namespace {

TEST(Interp, Lerp)
{
    EXPECT_DOUBLE_EQ(lerp(2.0, 4.0, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(lerp(2.0, 4.0, 0.0), 2.0);
    EXPECT_DOUBLE_EQ(lerp(2.0, 4.0, 1.0), 4.0);
}

TEST(PiecewiseLinearTest, HitsBreakpointsExactly)
{
    const PiecewiseLinear curve({{1.0, 10.0}, {2.0, 20.0}, {4.0, 0.0}});
    EXPECT_DOUBLE_EQ(curve.at(1.0), 10.0);
    EXPECT_DOUBLE_EQ(curve.at(2.0), 20.0);
    EXPECT_DOUBLE_EQ(curve.at(4.0), 0.0);
}

TEST(PiecewiseLinearTest, InterpolatesLinearly)
{
    const PiecewiseLinear curve({{0.0, 0.0}, {10.0, 100.0}});
    EXPECT_DOUBLE_EQ(curve.at(2.5), 25.0);
    EXPECT_DOUBLE_EQ(curve.at(7.5), 75.0);
}

TEST(PiecewiseLinearTest, ClampsOutOfRangeByDefault)
{
    const PiecewiseLinear curve({{1.0, 5.0}, {2.0, 9.0}});
    EXPECT_DOUBLE_EQ(curve.at(0.5), 5.0);
    EXPECT_DOUBLE_EQ(curve.at(3.0), 9.0);
}

TEST(PiecewiseLinearTest, ExtrapolatesWhenConfigured)
{
    const PiecewiseLinear curve({{1.0, 5.0}, {2.0, 9.0}}, false,
                                PiecewiseLinear::OutOfRange::Extrapolate);
    EXPECT_DOUBLE_EQ(curve.at(0.0), 1.0);
    EXPECT_DOUBLE_EQ(curve.at(3.0), 13.0);
}

TEST(PiecewiseLinearTest, LogXInterpolation)
{
    // In log-x, the midpoint of [1, 4] is 2.
    const PiecewiseLinear curve({{1.0, 0.0}, {4.0, 10.0}}, true);
    EXPECT_NEAR(curve.at(2.0), 5.0, 1e-12);
}

TEST(PiecewiseLinearTest, SinglePointIsConstant)
{
    const PiecewiseLinear curve({{3.0, 7.0}});
    EXPECT_DOUBLE_EQ(curve.at(1.0), 7.0);
    EXPECT_DOUBLE_EQ(curve.at(100.0), 7.0);
}

TEST(PiecewiseLinearTest, RejectsBadBreakpoints)
{
    EXPECT_EXIT(PiecewiseLinear({}), ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(PiecewiseLinear({{2.0, 1.0}, {2.0, 2.0}}),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(PiecewiseLinear({{3.0, 1.0}, {2.0, 2.0}}),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(PiecewiseLinear({{0.0, 1.0}, {2.0, 2.0}}, true),
                ::testing::ExitedWithCode(1), "");
}

/**
 * Property: for a monotone breakpoint table, interpolated values stay
 * within the envelope of neighboring breakpoints, in both linear and
 * log-x modes.
 */
class InterpBounds : public ::testing::TestWithParam<bool> {};

TEST_P(InterpBounds, StaysWithinEnvelope)
{
    const bool log_x = GetParam();
    const PiecewiseLinear curve(
        {{3.0, 2.75}, {5.0, 2.75}, {7.0, 1.52}, {10.0, 1.475},
         {14.0, 1.2}, {20.0, 1.2}, {28.0, 0.9}},
        log_x);
    for (double x = 3.0; x <= 28.0; x += 0.25) {
        const double y = curve.at(x);
        EXPECT_GE(y, 0.9);
        EXPECT_LE(y, 2.75);
    }
    // Monotone non-increasing table stays monotone non-increasing.
    double prev = curve.at(3.0);
    for (double x = 3.25; x <= 28.0; x += 0.25) {
        const double y = curve.at(x);
        EXPECT_LE(y, prev + 1e-12);
        prev = y;
    }
}

INSTANTIATE_TEST_SUITE_P(LinearAndLog, InterpBounds, ::testing::Bool());

} // namespace
} // namespace act::util

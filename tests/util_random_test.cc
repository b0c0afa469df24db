/** @file Tests for the deterministic PRNG and its distributions. */

#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace act::util {
namespace {

TEST(Random, DeterministicForFixedSeed)
{
    Xorshift64Star a(7);
    Xorshift64Star b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    Xorshift64Star c(8);
    EXPECT_NE(a.next(), c.next());
}

TEST(Random, ZeroSeedIsRemapped)
{
    // Zero is the xorshift fixed point; the constructor must remap it
    // to 1 rather than emit zeros forever.
    Xorshift64Star from_zero(0);
    Xorshift64Star from_one(1);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(from_zero.next(), from_one.next());
}

TEST(Random, UnitValuesStayInRange)
{
    Xorshift64Star rng(1);
    for (int i = 0; i < 10'000; ++i) {
        const double u = rng.nextUnit();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Random, NextBelowCoversAndBounds)
{
    Xorshift64Star rng(2);
    std::vector<bool> seen(10, false);
    for (int i = 0; i < 10'000; ++i) {
        const std::uint64_t v = rng.nextBelow(10);
        ASSERT_LT(v, 10u);
        seen[v] = true;
    }
    for (bool hit : seen)
        EXPECT_TRUE(hit);
    EXPECT_EXIT(rng.nextBelow(0), ::testing::ExitedWithCode(1), "");
}

TEST(Random, UniformMeanConverges)
{
    Xorshift64Star rng(3);
    double sum = 0.0;
    constexpr int kSamples = 100'000;
    for (int i = 0; i < kSamples; ++i)
        sum += rng.nextUniform(10.0, 20.0);
    EXPECT_NEAR(sum / kSamples, 15.0, 0.05);
}

} // namespace
} // namespace act::util

/**
 * @file
 * Tests for the SIMD dispatch layer and its three kernels. The contract
 * under test is bit-identity (DESIGN.md §11): every vector kernel
 * must reproduce the scalar reference kernel's outputs exactly --
 * EXPECT_EQ on doubles throughout, no tolerances -- for every length,
 * including the ragged tails.
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"
#include "util/simd.h"
#include "util/simd_kernels.h"

namespace act::util::simd {
namespace {

/** Every level whose kernels this binary can safely execute. */
std::vector<SimdLevel>
availableLevels()
{
    std::vector<SimdLevel> levels = {SimdLevel::Scalar};
    if (simdLevelAvailable(SimdLevel::Avx2))
        levels.push_back(SimdLevel::Avx2);
    return levels;
}

/** Lengths that exercise the sub-vector, tail, and long-run paths
 *  of the 4-lane tier. */
const std::size_t kLengths[] = {1,  2,   3,   4,   5,    7,    8,
                                15, 16,  17,  63,  64,   65,   96,
                                127, 128, 129, 255, 256, 257, 511,
                                1000, 4096, 6143};

/** @p n draws of Xorshift64Star(seed).nextUnit(): irregular values in
 *  [0, 1) for the kernels to chew on. */
std::vector<double>
unitDraws(std::uint64_t seed, std::size_t n)
{
    Xorshift64Star rng(seed);
    std::vector<double> values(n);
    for (double &value : values)
        value = rng.nextUnit();
    return values;
}

TEST(SimdLevelTest, NamesRoundTrip)
{
    EXPECT_EQ(simdLevelFromName("scalar"), SimdLevel::Scalar);
    EXPECT_EQ(simdLevelFromName("avx2"), SimdLevel::Avx2);
    EXPECT_EQ(std::string(simdLevelName(SimdLevel::Scalar)), "scalar");
    EXPECT_EQ(std::string(simdLevelName(SimdLevel::Avx2)), "avx2");
}

TEST(SimdLevelTest, AutoAndGarbageResolveToDetected)
{
    EXPECT_EQ(simdLevelFromName("auto"), detectedSimdLevel());
    EXPECT_EQ(simdLevelFromName("turbo9000"), detectedSimdLevel());
    EXPECT_EQ(simdLevelFromName("sse2"), detectedSimdLevel());
}

TEST(SimdLevelTest, ScalarAlwaysAvailable)
{
    EXPECT_TRUE(simdLevelAvailable(SimdLevel::Scalar));
}

TEST(SimdLevelTest, SetSimdLevelInstallsAvailableLevels)
{
    const SimdLevel before = simdLevel();
    for (SimdLevel level : availableLevels())
        EXPECT_EQ(setSimdLevel(level), level);
    // Restore whatever the environment picked.
    setSimdLevel(before);
}

TEST(SimdKernelsTest, TableForEveryAvailableLevel)
{
    for (SimdLevel level : availableLevels()) {
        const KernelTable &table = kernels(level);
        EXPECT_NE(table.window_costs, nullptr);
        EXPECT_NE(table.argmin_first, nullptr);
        EXPECT_NE(table.log_normal, nullptr);
    }
}

TEST(SimdKernelsTest, WindowCostsMatchScalarReferenceBitwise)
{
    // A small cyclic series with irregular values so wrap and
    // non-wrap windows differ; prefix and doubled arrays as the
    // fleet's RegionSeries builds them.
    constexpr std::size_t kSamples = 24;
    std::vector<double> grams = unitDraws(67, kSamples);
    const KernelTable &scalar = scalarKernels();
    for (double &g : grams)
        g = 100.0 + 500.0 * g;
    std::vector<double> prefix(kSamples + 1, 0.0);
    for (std::size_t i = 0; i < kSamples; ++i)
        prefix[i + 1] = prefix[i] + grams[i];
    std::vector<double> grams2x(grams);
    grams2x.insert(grams2x.end(), grams.begin(), grams.end());

    for (SimdLevel level : availableLevels()) {
        const KernelTable &table = kernels(level);
        for (std::size_t start0 : {std::size_t{0}, std::size_t{5},
                                   std::size_t{23}, std::size_t{70}}) {
            for (std::size_t rem :
                 {std::size_t{0}, std::size_t{1}, std::size_t{11},
                  std::size_t{23}}) {
                // Counts below, at, and far beyond the series length
                // exercise every segment split and the s0 rewrap.
                for (std::size_t count :
                     {std::size_t{1}, std::size_t{2}, std::size_t{13},
                      std::size_t{24}, std::size_t{57}}) {
                    for (double tail : {0.0, 0.37}) {
                        WindowCostProblem problem;
                        problem.prefix = prefix.data();
                        problem.grams2x = grams2x.data();
                        problem.n = kSamples;
                        problem.start0 = start0;
                        problem.count = count;
                        problem.rem = rem;
                        problem.base = 2.0 * prefix[kSamples];
                        problem.step = 1.0;
                        problem.tail_hours = tail;

                        std::vector<double> expected(count),
                            actual(count);
                        scalar.window_costs(problem, expected.data());
                        table.window_costs(problem, actual.data());
                        for (std::size_t k = 0; k < count; ++k) {
                            ASSERT_EQ(actual[k], expected[k])
                                << simdLevelName(level) << " start0 "
                                << start0 << " rem " << rem
                                << " count " << count << " tail "
                                << tail << " shift " << k;
                        }
                    }
                }
            }
        }
    }
}

TEST(SimdKernelsTest, ArgminFirstReturnsEarliestMinimum)
{
    const KernelTable &scalar = scalarKernels();
    for (SimdLevel level : availableLevels()) {
        const KernelTable &table = kernels(level);
        for (std::size_t n : kLengths) {
            const std::vector<double> values = unitDraws(123, n);
            EXPECT_EQ(table.argmin_first(values.data(), n),
                      scalar.argmin_first(values.data(), n))
                << simdLevelName(level) << " n " << n;

            // Ties must resolve to the earliest index, wherever the
            // duplicates land relative to the vector lanes.
            std::vector<double> tied(n, 5.0);
            EXPECT_EQ(table.argmin_first(tied.data(), n), 0u)
                << simdLevelName(level) << " all-equal n " << n;
            for (std::size_t lo : {std::size_t{0}, n / 3, n - 1}) {
                std::fill(tied.begin(), tied.end(), 5.0);
                tied[lo] = 1.0;
                if (n - 1 > lo)
                    tied[n - 1] = 1.0;
                EXPECT_EQ(table.argmin_first(tied.data(), n), lo)
                    << simdLevelName(level) << " n " << n << " lo "
                    << lo;
            }
        }
    }
}

TEST(SimdKernelsTest, LogNormalMatchesScalarReferenceBitwise)
{
    // Irregular draws plus the edges of the transform: u1 = 0 and
    // subnormal (both clamped to 1e-300), u1 just below 1, and u2 on
    // the quadrant boundaries of the angle 2 pi u2.
    constexpr std::size_t kMax = 512;
    std::vector<double> u1 = unitDraws(71, kMax);
    std::vector<double> u2 = unitDraws(72, kMax);
    const double edges_u1[] = {0.0, 1e-310, 1e-300, 1.0 - 0x1p-53};
    const double edges_u2[] = {0.0, 0.25, 0.5, 0.75, 1.0 - 0x1p-53};
    for (std::size_t i = 0; i < 4; ++i)
        u1[5 * i + 2] = edges_u1[i];
    for (std::size_t i = 0; i < 5; ++i)
        u2[3 * i + 1] = edges_u2[i];
    const KernelTable &scalar = scalarKernels();

    for (SimdLevel level : availableLevels()) {
        const KernelTable &table = kernels(level);
        for (std::size_t count : {std::size_t{0}, std::size_t{1},
                                  std::size_t{3}, std::size_t{4},
                                  std::size_t{5}, std::size_t{511},
                                  std::size_t{512}}) {
            // A clamp no draw reaches and one most draws hit.
            for (double max_value : {1e300, 3.0}) {
                LogNormalProblem problem;
                problem.u1 = u1.data();
                problem.u2 = u2.data();
                problem.count = count;
                problem.median = 2.0;
                problem.log_sigma = detLog(2.5);
                problem.max_value = max_value;

                std::vector<double> expected(count, -1.0);
                std::vector<double> actual(count, -1.0);
                scalar.log_normal(problem, expected.data());
                table.log_normal(problem, actual.data());
                // In place over u1, as the job stream runs it.
                std::vector<double> in_place(u1.begin(),
                                             u1.begin() + count);
                problem.u1 = in_place.data();
                table.log_normal(problem, in_place.data());
                for (std::size_t i = 0; i < count; ++i) {
                    ASSERT_GT(expected[i], 0.0) << "draw " << i;
                    ASSERT_EQ(actual[i], expected[i])
                        << simdLevelName(level) << " count " << count
                        << " max " << max_value << " draw " << i;
                    ASSERT_EQ(in_place[i], expected[i])
                        << simdLevelName(level) << " in place, count "
                        << count << " draw " << i;
                }
            }
        }
    }
}

} // namespace
} // namespace act::util::simd

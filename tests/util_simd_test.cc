/**
 * @file
 * Tests for the SIMD dispatch layer and its two kernels. The contract
 * under test is bit-identity (DESIGN.md §11): every tier must
 * reproduce a naive reference exactly -- EXPECT_EQ on doubles
 * throughout, no tolerances -- for every length, including the
 * ragged tails.
 */

#include <cstdint>
#include <string>
#include <utility>
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
        EXPECT_NE(table.placement_scan, nullptr);
        EXPECT_NE(table.log_normal, nullptr);
    }
}

/**
 * The fleet replayer's window cost of one region, written out as the
 * replay oracle's sumSamples()/weightAt() pair over that region's own
 * prefix sums and samples.
 */
double
referenceWeight(const std::vector<double> &prefix,
                const std::vector<double> &grams, std::size_t start,
                std::size_t full, double step, double tail_hours)
{
    const std::size_t n = grams.size();
    double sum = static_cast<double>(full / n) * prefix[n];
    const std::size_t rem = full % n;
    const std::size_t s0 = start % n;
    if (s0 + rem <= n)
        sum += prefix[s0 + rem] - prefix[s0];
    else
        sum += (prefix[n] - prefix[s0]) + prefix[s0 + rem - n];
    double weight = sum * step;
    if (tail_hours > 0.0)
        weight += grams[(start + full) % n] * tail_hours;
    return weight;
}

/** Per-region series plus the region-interleaved tables the fleet
 *  setup builds from them. */
struct RegionTables
{
    std::vector<std::vector<double>> grams;
    std::vector<std::vector<double>> prefix;
    std::vector<double> prefix_table;
    std::vector<double> sample_table;
};

/** @p regions series of @p n samples, irregular or all equal. The
 *  tables are sized exactly, padding included, so a lane load past
 *  the padding is an out-of-bounds read under AddressSanitizer. */
RegionTables
regionTables(std::size_t regions, std::size_t n, bool flat)
{
    RegionTables t;
    t.prefix_table.assign((n + 1) * regions + kMaxLanes - 1, 0.0);
    t.sample_table.assign(n * regions + kMaxLanes - 1, 0.0);
    for (std::size_t r = 0; r < regions; ++r) {
        std::vector<double> grams = unitDraws(300 + r, n);
        std::vector<double> prefix(1, 0.0);
        for (double &g : grams) {
            g = flat ? 250.0 : 100.0 + 500.0 * g;
            prefix.push_back(prefix.back() + g);
        }
        for (std::size_t i = 0; i <= n; ++i)
            t.prefix_table[i * regions + r] = prefix[i];
        for (std::size_t i = 0; i < n; ++i)
            t.sample_table[i * regions + r] = grams[i];
        t.grams.push_back(std::move(grams));
        t.prefix.push_back(std::move(prefix));
    }
    return t;
}

/** The naive placement answer: a strict-< scan of each region's
 *  costs over [0, ends.back()), read at every class end. */
void
naiveScan(const RegionTables &t, const PlacementScanProblem &pr,
          std::size_t full, std::vector<std::size_t> &best_shift,
          std::vector<double> &best_weight)
{
    best_shift.assign(pr.classes * pr.regions, 0);
    best_weight.assign(pr.classes * pr.regions, 0.0);
    for (std::size_t r = 0; r < pr.regions; ++r) {
        std::size_t best = 0;
        double best_value = referenceWeight(t.prefix[r], t.grams[r],
                                            pr.start0, full, pr.step,
                                            pr.tail_hours);
        std::size_t k = 1;
        for (std::size_t c = 0; c < pr.classes; ++c) {
            for (; k < pr.ends[c]; ++k) {
                const double value =
                    referenceWeight(t.prefix[r], t.grams[r], pr.start0 + k,
                                    full, pr.step, pr.tail_hours);
                if (value < best_value) {
                    best_value = value;
                    best = k;
                }
            }
            best_shift[c * pr.regions + r] = best;
            best_weight[c * pr.regions + r] = best_value;
        }
    }
}

TEST(SimdKernelsTest, PlacementScanMatchesNaiveReferenceBitwise)
{
    // Region counts on both sides of the 4-lane boundary, shift counts
    // up to four cycles of the series, starts that wrap, windows that
    // cover the whole series, fractional tails, nested class ends
    // (equal ones included), and flat series whose exact ties must
    // resolve to the earliest shift.
    constexpr std::size_t kSamples = 24;
    using Ends = std::vector<std::size_t>;
    std::vector<std::size_t> want_shift;
    std::vector<double> want_weight;
    for (const bool flat : {false, true}) {
        for (std::size_t regions = 1; regions <= 9; ++regions) {
            const RegionTables tables =
                regionTables(regions, kSamples, flat);
            for (const std::size_t width :
                 {1, 2, 4, 5, 13, 24, 31, 97, 100}) {
                const Ends class_ends[] = {{width},
                                           {1, width},
                                           {1, 1, width},
                                           {1, width, width},
                                           {1, (width + 1) / 2, width}};
                for (const Ends &ends : class_ends) {
                    for (const std::size_t start0 : {0, 5, 23, 70}) {
                        for (const std::size_t full :
                             {0, 1, 11, 23, 24, 59}) {
                            for (const double tail : {0.0, 0.37}) {
                                PlacementScanProblem problem;
                                problem.prefix = tables.prefix_table.data();
                                problem.samples = tables.sample_table.data();
                                problem.regions = regions;
                                problem.n = kSamples;
                                problem.start0 = start0;
                                problem.rem = full % kSamples;
                                problem.cycles =
                                    static_cast<double>(full / kSamples);
                                problem.step = 0.5;
                                problem.tail_hours = tail;
                                problem.ends = ends.data();
                                problem.classes = ends.size();
                                naiveScan(tables, problem, full, want_shift,
                                          want_weight);
                                for (SimdLevel level : availableLevels()) {
                                    std::vector<std::size_t> shift(
                                        want_shift.size(), 999);
                                    std::vector<double> weight(
                                        want_weight.size(), -1.0);
                                    kernels(level).placement_scan(
                                        problem, shift.data(),
                                        weight.data());
                                    const std::string where =
                                        std::string(simdLevelName(level)) +
                                        " flat " + std::to_string(flat) +
                                        " regions " +
                                        std::to_string(regions) +
                                        " width " + std::to_string(width) +
                                        " start0 " +
                                        std::to_string(start0) + " full " +
                                        std::to_string(full) + " tail " +
                                        std::to_string(tail);
                                    ASSERT_EQ(shift, want_shift) << where;
                                    ASSERT_EQ(weight, want_weight) << where;
                                }
                            }
                        }
                    }
                }
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

/**
 * @file
 * Tests for the SIMD dispatch layer and its two kernels. The contract
 * under test is bit-identity (DESIGN.md §11): every tier must
 * reproduce a naive reference exactly -- EXPECT_EQ on doubles
 * throughout, no tolerances -- for every length, including the
 * ragged tails.
 */

#include <algorithm>
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
        EXPECT_NE(table.fleet_block, nullptr);
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
                double duration, double step)
{
    const std::size_t n = grams.size();
    const auto full = static_cast<std::size_t>(duration / step);
    const double tail_hours = duration - static_cast<double>(full) * step;
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

/** The tables of the series @p grams, one per region, all of one
 *  length. They are sized exactly, padding included, so a lane load
 *  past the padding is an out-of-bounds read under AddressSanitizer. */
RegionTables
tablesOf(std::vector<std::vector<double>> grams)
{
    const std::size_t regions = grams.size();
    const std::size_t n = grams[0].size();
    RegionTables t;
    t.prefix_table.assign((n + 1) * regions + kMaxLanes - 1, 0.0);
    t.sample_table.assign(n * regions + kMaxLanes - 1, 0.0);
    for (std::size_t r = 0; r < regions; ++r) {
        std::vector<double> prefix(1, 0.0);
        for (const double g : grams[r])
            prefix.push_back(prefix.back() + g);
        for (std::size_t i = 0; i <= n; ++i)
            t.prefix_table[i * regions + r] = prefix[i];
        for (std::size_t i = 0; i < n; ++i)
            t.sample_table[i * regions + r] = grams[r][i];
        t.prefix.push_back(std::move(prefix));
    }
    t.grams = std::move(grams);
    return t;
}

/** @p regions series of @p n samples, irregular or all equal. */
RegionTables
regionTables(std::size_t regions, std::size_t n, bool flat)
{
    std::vector<std::vector<double>> grams;
    for (std::size_t r = 0; r < regions; ++r) {
        grams.push_back(unitDraws(300 + r, n));
        for (double &g : grams.back())
            g = flat ? 250.0 : 100.0 + 500.0 * g;
    }
    return tablesOf(std::move(grams));
}

/** A block of fleet jobs as SoA columns. */
struct JobColumns
{
    std::vector<double> arrival_hours;
    std::vector<double> duration_hours;
    std::vector<double> slack_hours;
    std::vector<std::uint8_t> deferrable;
    std::vector<double> grid_kw;

    void
    add(double arrival, double duration, double slack, bool can_defer,
        double kw)
    {
        arrival_hours.push_back(arrival);
        duration_hours.push_back(duration);
        slack_hours.push_back(can_defer ? slack : 0.0);
        deferrable.push_back(can_defer ? 1 : 0);
        grid_kw.push_back(kw);
    }
};

/** The block kernel's running sums, owned. */
struct BlockSums
{
    std::vector<double> baseline;
    std::vector<double> operational;
    std::vector<std::uint64_t> deferred;
    std::vector<std::uint64_t> migrated;

    explicit BlockSums(std::size_t regions)
        : baseline(regions, 0.0), operational(kPlacementRules * regions, 0.0),
          deferred(kPlacementRules * regions, 0),
          migrated(kPlacementRules * regions, 0)
    {}

    FleetBlockSums
    view()
    {
        return {baseline.data(), operational.data(), deferred.data(),
                migrated.data()};
    }

};

/**
 * The naive answer for jobs [first, last) of @p jobs, added to
 * @p sums: per job and home region, the replay oracle's scan -- home
 * at shift 0 as the first candidate, then a strict-< walk over every
 * shift up to the uncapped slack count, shift-major and (for the
 * cross-region rule) region-minor -- and the scalar per-rule adds.
 */
void
naiveBlock(const RegionTables &t, double step, const JobColumns &jobs,
           std::size_t first, std::size_t last, double wide_slack,
           std::size_t windows, BlockSums &sums)
{
    const std::size_t regions = t.grams.size();
    for (std::size_t i = first; i < last; ++i) {
        const auto start = static_cast<std::size_t>(
            jobs.arrival_hours[i] / step);
        const double duration = jobs.duration_hours[i];
        const double kw = jobs.grid_kw[i];
        const double slack = windows >= 2 ? jobs.slack_hours[i] : 0.0;
        const double wide =
            windows >= 3 && jobs.deferrable[i] != 0 ? wide_slack : slack;
        for (std::size_t home = 0; home < regions; ++home) {
            const double cost0 = referenceWeight(t.prefix[home],
                                                 t.grams[home], start,
                                                 duration, step);
            sums.baseline[home] += kw * cost0;
            const auto place = [&](std::size_t rule, double slack_hours,
                                   bool cross) {
                double best = cost0;
                std::size_t best_shift = 0;
                std::size_t best_region = home;
                const auto max_shift =
                    static_cast<std::size_t>(slack_hours / step);
                for (std::size_t k = 0; k <= max_shift; ++k) {
                    for (std::size_t r = cross ? 0 : home;
                         r < (cross ? regions : home + 1); ++r) {
                        const double w = referenceWeight(
                            t.prefix[r], t.grams[r], start + k, duration,
                            step);
                        if (w < best) {
                            best = w;
                            best_shift = k;
                            best_region = r;
                        }
                    }
                }
                const std::size_t key = rule * regions + home;
                sums.operational[key] += kw * best;
                sums.deferred[key] += best_shift != 0 ? 1 : 0;
                sums.migrated[key] += best_region != home ? 1 : 0;
            };
            place(kSlackHome, slack, false);
            place(kWideHome, wide, false);
            place(kSlackCross, slack, true);
        }
    }
}

/** Run every available level's block kernel on jobs [first, last) and
 *  require the naive reference's sums bit for bit. */
void
expectBlockMatches(const RegionTables &tables, std::size_t n, double step,
                   const JobColumns &jobs, std::size_t first,
                   std::size_t last, double wide_slack, std::size_t windows,
                   const std::string &where)
{
    const std::size_t regions = tables.grams.size();
    // Start from nonzero sums, as a later block of a replay does.
    BlockSums want(regions);
    for (std::size_t r = 0; r < regions; ++r)
        want.baseline[r] = 0.25 * static_cast<double>(r + 1);
    for (std::size_t key = 0; key < want.operational.size(); ++key) {
        want.operational[key] = 1.5 + static_cast<double>(key);
        want.deferred[key] = 3 * key;
        want.migrated[key] = 7 + key;
    }
    const BlockSums before = want;
    naiveBlock(tables, step, jobs, first, last, wide_slack, windows, want);

    FleetBlockProblem problem;
    problem.prefix = tables.prefix_table.data();
    problem.samples = tables.sample_table.data();
    problem.regions = regions;
    problem.n = n;
    problem.step = step;
    problem.arrival_hours = jobs.arrival_hours.data() + first;
    problem.duration_hours = jobs.duration_hours.data() + first;
    problem.slack_hours = jobs.slack_hours.data() + first;
    problem.deferrable = jobs.deferrable.data() + first;
    problem.grid_kw = jobs.grid_kw.data() + first;
    problem.count = last - first;
    problem.wide_slack_hours = wide_slack;
    problem.windows = windows;
    for (SimdLevel level : availableLevels()) {
        BlockSums got = before;
        kernels(level).fleet_block(problem, got.view());
        const std::string label =
            std::string(simdLevelName(level)) + " " + where;
        ASSERT_EQ(got.baseline, want.baseline) << label;
        // A rule the windows leave unscanned is not compared.
        for (std::size_t rule = 0; rule < kPlacementRules; ++rule) {
            if ((rule == kWideHome ? 3 : 2) > windows)
                continue;
            for (std::size_t r = 0; r < regions; ++r) {
                const std::size_t key = rule * regions + r;
                ASSERT_EQ(got.operational[key], want.operational[key])
                    << label << " rule " << rule << " home " << r;
                ASSERT_EQ(got.deferred[key], want.deferred[key])
                    << label << " rule " << rule << " home " << r;
                ASSERT_EQ(got.migrated[key], want.migrated[key])
                    << label << " rule " << rule << " home " << r;
            }
        }
    }
}

TEST(SimdKernelsTest, FleetBlockMatchesNaiveReferenceBitwise)
{
    // Region counts on both sides of the 4-lane boundary, shift counts
    // up to four cycles of the series (capped at its length by the
    // kernel), starts that wrap, windows that cover the whole series,
    // fractional tails, nested and equal window ends, and flat series
    // whose exact ties must resolve to the earliest shift and the
    // lowest region. Each (width, windows) case is one block of jobs.
    constexpr std::size_t kSamples = 24;
    constexpr double kStep = 0.5;
    for (const bool flat : {false, true}) {
        for (std::size_t regions = 1; regions <= 9; ++regions) {
            const RegionTables tables =
                regionTables(regions, kSamples, flat);
            for (const std::size_t width :
                 {1, 2, 4, 5, 13, 24, 31, 97, 100}) {
                // A job's slack window is never wider than the wide one.
                const std::size_t slack_widths[] = {1, (width + 1) / 2,
                                                    width};
                JobColumns jobs;
                double kw = 0.2;
                for (const std::size_t start0 : {0, 5, 23, 70}) {
                    for (const std::size_t full : {0, 1, 11, 23, 24, 59}) {
                        for (const double tail : {0.0, 0.37}) {
                            const double duration =
                                static_cast<double>(full) * kStep + tail;
                            const double arrival =
                                static_cast<double>(start0) * kStep + 0.1;
                            jobs.add(arrival, duration, 0.0, false, kw);
                            for (const std::size_t slack : slack_widths) {
                                kw += 0.013;
                                jobs.add(arrival, duration,
                                         static_cast<double>(slack - 1) *
                                             kStep,
                                         true, kw);
                            }
                        }
                    }
                }
                const double wide =
                    static_cast<double>(width - 1) * kStep;
                for (const std::size_t windows : {1, 2, 3}) {
                    expectBlockMatches(
                        tables, kSamples, kStep, jobs, 0,
                        jobs.grid_kw.size(), wide, windows,
                        "flat " + std::to_string(flat) + " regions " +
                            std::to_string(regions) + " width " +
                            std::to_string(width) + " windows " +
                            std::to_string(windows));
                }
            }
        }
    }
}

TEST(SimdKernelsTest, FleetBlockLengthsMatchNaiveReferenceBitwise)
{
    // Irregular jobs in blocks of 1, 511 and 512 (the replayer's
    // block), and a block where no job may defer, over one lane chunk
    // of regions, a ragged second chunk, and a series whose slack
    // windows outrun its length.
    constexpr double kStep = 1.0;
    for (const std::size_t n : {24, 168}) {
        for (const std::size_t regions : {3, 6}) {
            const RegionTables tables = regionTables(regions, n, false);
            Xorshift64Star rng(900 + n + regions);
            JobColumns jobs;
            JobColumns pinned;
            for (std::size_t i = 0; i < 512; ++i) {
                const double arrival = rng.nextUniform(0.0, 400.0);
                const double duration = rng.nextUniform(0.0, 60.0);
                const double slack = rng.nextUniform(0.0, 40.0);
                const double kw = rng.nextUniform(0.1, 0.5);
                jobs.add(arrival, duration, slack, rng.nextUnit() < 0.6, kw);
                pinned.add(arrival, duration, slack, false, kw);
            }
            const std::string where =
                "n " + std::to_string(n) + " regions " +
                std::to_string(regions);
            for (const std::size_t count : {1, 511, 512}) {
                expectBlockMatches(tables, n, kStep, jobs, 0, count, 40.0,
                                   3, where + " count " +
                                          std::to_string(count));
            }
            expectBlockMatches(tables, n, kStep, jobs, 7, 8, 40.0, 3,
                               where + " job 7 alone");
            expectBlockMatches(tables, n, kStep, pinned, 0, 512, 40.0, 3,
                               where + " no deferrable job");
        }
    }
}

TEST(SimdKernelsTest, FleetBlockWindowsAtTheSeriesEndMatchNaiveReferenceBitwise)
{
    // Jobs whose widest window's last sample, s0 + end - 1 + rem, is
    // n - 1 (the last one scanned without a wrap), n or n + 1 (the
    // first two that wrap), with a tail and without, and lasting up to
    // two full series more (cycles > 0). A pinned job's widest window
    // is one shift; a deferrable job's is the wide one at 3 windows,
    // and at 2 windows too when its own slack is the wide slack.
    constexpr std::size_t kSamples = 24;
    constexpr double kStep = 0.5;
    for (const std::size_t regions : {1, 3, 4, 5}) {
        const RegionTables tables = regionTables(regions, kSamples, false);
        for (const std::size_t width : {1, 2, 7, 24}) {
            JobColumns jobs;
            double kw = 0.3;
            for (const std::size_t cycles : {0, 1, 2}) {
                for (const std::size_t rem : {0, 1, 9, 23}) {
                    for (const double tail : {0.0, 0.125}) {
                        const double duration =
                            static_cast<double>(cycles * kSamples + rem) *
                                kStep +
                            tail;
                        for (const std::size_t last :
                             {kSamples - 1, kSamples, kSamples + 1}) {
                            for (const std::size_t end :
                                 {std::size_t{1}, width}) {
                                if (last + 1 < end + rem ||
                                    last + 1 - end - rem >= kSamples)
                                    continue;
                                const double arrival =
                                    (static_cast<double>(last + 1 - end -
                                                         rem) +
                                     0.25) *
                                    kStep;
                                kw += 0.011;
                                if (end == 1) {
                                    jobs.add(arrival, duration, 0.0, false,
                                             kw);
                                    continue;
                                }
                                for (const std::size_t slack :
                                     {std::size_t{1}, width}) {
                                    jobs.add(arrival, duration,
                                             static_cast<double>(slack - 1) *
                                                 kStep,
                                             true, kw);
                                }
                            }
                        }
                    }
                }
            }
            const double wide = static_cast<double>(width - 1) * kStep;
            for (const std::size_t windows : {2, 3}) {
                expectBlockMatches(tables, kSamples, kStep, jobs, 0,
                                   jobs.grid_kw.size(), wide, windows,
                                   "regions " + std::to_string(regions) +
                                       " width " + std::to_string(width) +
                                       " windows " +
                                       std::to_string(windows));
            }
        }
    }
}

/** Region @p r's first strict-< minimum over @p shifts shifts from
 *  sample @p start, as (weight, shift). */
std::pair<double, std::size_t>
firstMinimum(const RegionTables &t, std::size_t r, std::size_t start,
             double duration, double step, std::size_t shifts)
{
    std::pair<double, std::size_t> best = {
        referenceWeight(t.prefix[r], t.grams[r], start, duration, step), 0};
    for (std::size_t k = 1; k < shifts; ++k) {
        const double w =
            referenceWeight(t.prefix[r], t.grams[r], start + k, duration,
                            step);
        if (w < best.first)
            best = {w, k};
    }
    return best;
}

TEST(SimdKernelsTest, FleetBlockCrossRegionTiesMatchNaiveReferenceBitwise)
{
    // Two regions whose slack-window minima are equal: at different
    // first-minimum shifts (one series is the other rotated by three
    // samples) or at the same shift (equal series). The cross-region
    // winner is then the earlier shift, and the lower region only at
    // the same shift. Every other region costs more. The pair sits in
    // either order, in one lane chunk or across the 4-lane boundary.
    // Integer samples, a whole-hour step and a quarter-hour tail keep
    // every cost exact, so equal window sums are equal bits.
    constexpr std::size_t kSamples = 24;
    constexpr double kStep = 1.0;
    constexpr double kWide = 16.0;
    std::vector<double> base = unitDraws(77, kSamples);
    for (double &g : base)
        g = static_cast<double>(100 + static_cast<int>(50.0 * g));
    Xorshift64Star rng(78);
    JobColumns jobs;
    for (std::size_t i = 0; i < 300; ++i) {
        const double arrival =
            static_cast<double>(rng.nextBelow(2 * kSamples)) + 0.5;
        const double duration =
            static_cast<double>(rng.nextBelow(30)) +
            (rng.nextUnit() < 0.5 ? 0.25 : 0.0);
        const double slack = static_cast<double>(rng.nextBelow(17));
        jobs.add(arrival, duration, slack, rng.nextUnit() < 0.8,
                 rng.nextUniform(0.1, 0.5));
    }
    for (const bool rotated : {true, false}) {
        std::vector<double> other = base;
        if (rotated)
            std::rotate(other.begin(), other.begin() + 3, other.end());
        for (const std::size_t regions : {1, 3, 4, 5, 9}) {
            for (const bool swapped : {false, true}) {
                const std::size_t low = regions / 2;
                const std::size_t high = regions - 1;
                std::vector<std::vector<double>> grams;
                for (std::size_t r = 0; r < regions; ++r) {
                    grams.push_back(base);
                    for (double &g : grams.back())
                        g += 60.0 + static_cast<double>(r);
                }
                grams[swapped ? high : low] = base;
                grams[swapped ? low : high] = other;
                const RegionTables tables = tablesOf(std::move(grams));
                const std::string where =
                    std::string(rotated ? "rotated" : "equal") +
                    " regions " + std::to_string(regions) +
                    (swapped ? " swapped" : "");

                // The cases must hold the ties they are named for.
                std::size_t ties = 0;
                for (std::size_t i = 0; i < jobs.grid_kw.size(); ++i) {
                    const auto start = static_cast<std::size_t>(
                        jobs.arrival_hours[i] / kStep);
                    const auto shifts = static_cast<std::size_t>(
                                            jobs.slack_hours[i] / kStep) +
                                        1;
                    const auto a =
                        firstMinimum(tables, low, start,
                                     jobs.duration_hours[i], kStep, shifts);
                    const auto b =
                        firstMinimum(tables, high, start,
                                     jobs.duration_hours[i], kStep, shifts);
                    if (a.first == b.first &&
                        (a.second != b.second) == rotated)
                        ++ties;
                }
                if (regions > 1) {
                    ASSERT_GT(ties, 10u) << where;
                }

                for (const std::size_t windows : {2, 3}) {
                    expectBlockMatches(tables, kSamples, kStep, jobs, 0,
                                       jobs.grid_kw.size(), kWide, windows,
                                       where + " windows " +
                                           std::to_string(windows));
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

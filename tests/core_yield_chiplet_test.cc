/**
 * @file
 * Tests for the defect-density yield models and the chiplet
 * partitioning analysis (the Reuse-tenet "chiplet design" extension).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/embodied.h"
#include "core/yield.h"
#include "pkg/package.h"

namespace act::core {
namespace {

using util::squareMillimeters;

TEST(YieldModels, KnownValues)
{
    DefectParams defects;
    defects.defect_density_per_cm2 = 0.1;

    // Poisson at 1 cm2, D0 = 0.1: exp(-0.1).
    defects.model = YieldModel::Poisson;
    EXPECT_NEAR(dieYield(util::squareCentimeters(1.0), defects),
                std::exp(-0.1), 1e-12);

    // Negative binomial, alpha = 3: (1 + 0.1/3)^-3.
    defects.model = YieldModel::NegativeBinomial;
    defects.clustering_alpha = 3.0;
    EXPECT_NEAR(dieYield(util::squareCentimeters(1.0), defects),
                std::pow(1.0 + 0.1 / 3.0, -3.0), 1e-12);

    // Murphy: ((1 - e^-l)/l)^2.
    defects.model = YieldModel::Murphy;
    const double l = 0.1;
    EXPECT_NEAR(dieYield(util::squareCentimeters(1.0), defects),
                std::pow((1.0 - std::exp(-l)) / l, 2.0), 1e-12);
}

TEST(YieldModels, OrderingAtLargeDies)
{
    // Clustering (negative binomial) is more forgiving than Poisson
    // for large dies; Murphy sits between.
    DefectParams poisson{0.2, 3.0, YieldModel::Poisson};
    DefectParams murphy{0.2, 3.0, YieldModel::Murphy};
    DefectParams nb{0.2, 3.0, YieldModel::NegativeBinomial};
    const util::Area big = squareMillimeters(600.0);
    EXPECT_LT(dieYield(big, poisson), dieYield(big, murphy));
    EXPECT_LT(dieYield(big, murphy), dieYield(big, nb));
}

TEST(YieldModels, InvalidInputsAreFatal)
{
    DefectParams defects;
    EXPECT_EXIT(dieYield(squareMillimeters(0.0), defects),
                ::testing::ExitedWithCode(1), "");
    defects.defect_density_per_cm2 = 0.0;
    EXPECT_EXIT(dieYield(squareMillimeters(100.0), defects),
                ::testing::ExitedWithCode(1), "");
    defects = DefectParams{};
    defects.clustering_alpha = 0.0;
    EXPECT_EXIT(dieYield(squareMillimeters(100.0), defects),
                ::testing::ExitedWithCode(1), "");
}

TEST(YieldModels, MurphySmallLambdaLimitIsOne)
{
    // ((1 - exp(-x))/x)^2 cancels catastrophically as x -> 0; the
    // expm1 form must approach Y = 1 smoothly from below instead.
    DefectParams defects;
    defects.model = YieldModel::Murphy;
    defects.defect_density_per_cm2 = 1e-12;
    double prev = 0.0;
    for (double cm2 : {1.0, 1e-3, 1e-6, 1e-9, 1e-12}) {
        const double y =
            dieYield(util::squareCentimeters(cm2), defects);
        EXPECT_GT(y, 0.999) << "lambda = " << cm2 * 1e-12;
        EXPECT_LE(y, 1.0);
        EXPECT_GE(y, prev);
        prev = y;
    }
    // Deep in the limit the yield is exactly 1: expm1(-x) == -x.
    defects.defect_density_per_cm2 = 1e-300;
    EXPECT_EQ(dieYield(util::squareCentimeters(1e-3), defects), 1.0);
}

TEST(YieldModels, MurphyMatchesNaiveFormAtModerateLambda)
{
    // Where the naive form is accurate the expm1 form must agree.
    DefectParams defects;
    defects.model = YieldModel::Murphy;
    for (double lambda : {0.05, 0.5, 2.0, 8.0}) {
        defects.defect_density_per_cm2 = lambda;
        const double naive =
            std::pow((1.0 - std::exp(-lambda)) / lambda, 2.0);
        EXPECT_NEAR(dieYield(util::squareCentimeters(1.0), defects),
                    naive, 1e-12 * naive + 1e-300);
    }
}

TEST(YieldModels, EffectiveAreaExceedsRawArea)
{
    const DefectParams defects;
    const util::Area die = squareMillimeters(200.0);
    EXPECT_GT(util::asSquareMillimeters(
                  effectiveAreaPerGoodDie(die, defects)),
              200.0);
}

/** Property: yield decreases monotonically with die area. */
class YieldMonotonic : public ::testing::TestWithParam<YieldModel> {};

TEST_P(YieldMonotonic, LargerDiesYieldWorse)
{
    DefectParams defects;
    defects.model = GetParam();
    double prev = 1.0;
    for (double mm2 = 25.0; mm2 <= 900.0; mm2 += 25.0) {
        const double y = dieYield(squareMillimeters(mm2), defects);
        EXPECT_LT(y, prev);
        EXPECT_GT(y, 0.0);
        prev = y;
    }
}

INSTANTIATE_TEST_SUITE_P(AllModels, YieldMonotonic,
                         ::testing::Values(YieldModel::Poisson,
                                           YieldModel::Murphy,
                                           YieldModel::NegativeBinomial));

/**
 * The homogeneous chiplet study: @p mm2 of 7 nm logic cut into N = 1..8
 * equal dies with a 10% beachfront tax -- monolithic at N = 1, else an
 * organic substrate at 0.10 of the footprint with unit bond yield.
 */
std::vector<pkg::PackageResult>
partitionSweep(double mm2,
             double defect_density = DefectParams{}.defect_density_per_cm2)
{
    DefectParams defects;
    defects.defect_density_per_cm2 = defect_density;
    std::vector<pkg::PackageResult> sweep;
    for (int n = 1; n <= 8; ++n) {
        pkg::PackageSpec spec;
        spec.style = n == 1 ? pkg::PackagingStyle::Monolithic
                            : pkg::PackagingStyle::OrganicSubstrate;
        spec.chiplets.push_back(pkg::splitLogicDie(
            squareMillimeters(mm2), n, 7.0, defects, 0.10));
        spec.substrate_area_factor = 0.10;
        spec.bond_yield = 1.0;
        sweep.push_back(pkg::evaluatePackage(spec, FabParams{}));
    }
    return sweep;
}

/** Die count of the carbon-minimal partitioning (first on ties). */
int
optimalDieCount(const std::vector<pkg::PackageResult> &sweep)
{
    return std::min_element(sweep.begin(), sweep.end(),
                            [](const auto &a, const auto &b) {
                                return a.total < b.total;
                            })
        ->die_count;
}

TEST(Chiplets, SmallDiesStayMonolithic)
{
    EXPECT_EQ(optimalDieCount(partitionSweep(100.0, 0.15)), 1);
}

TEST(Chiplets, LargeDiesPreferPartitioning)
{
    const auto sweep = partitionSweep(800.0, 0.15);
    const int best = optimalDieCount(sweep);
    EXPECT_GT(best, 2);
    // Monolithic 800 mm2 wastes a lot of yielded silicon.
    EXPECT_LT(util::asGrams(sweep[best - 1].total),
              0.6 * util::asGrams(sweep[0].total));
}

TEST(Chiplets, YieldImprovesWithPartitioning)
{
    const auto sweep = partitionSweep(600.0);
    for (std::size_t i = 1; i < sweep.size(); ++i)
        EXPECT_GT(sweep[i].min_die_yield, sweep[i - 1].min_die_yield);
}

TEST(Chiplets, MonolithicHasNoInterposerOrInterfaceOverhead)
{
    const auto point = partitionSweep(300.0)[0];
    EXPECT_DOUBLE_EQ(util::asGrams(point.substrate_embodied), 0.0);
    EXPECT_NEAR(util::asSquareMillimeters(point.silicon_area), 300.0,
                1e-9);
    EXPECT_DOUBLE_EQ(util::asGrams(point.assembly_embodied),
                     util::asGrams(kPackagingFootprint));
}

TEST(Chiplets, CostModelComponentsAddUp)
{
    const auto point = partitionSweep(600.0)[3];
    EXPECT_NEAR(util::asGrams(point.total),
                util::asGrams(point.silicon_embodied) +
                    util::asGrams(point.substrate_embodied) +
                    util::asGrams(point.assembly_embodied),
                1e-9);
    // Four chiplets: one package + 3 * 50% assembly increments.
    EXPECT_NEAR(util::asGrams(point.assembly_embodied),
                150.0 * (1.0 + 0.5 * 3.0), 1e-9);
}

TEST(Chiplets, PerfectYieldMakesMonolithicOptimal)
{
    // With essentially no defects there is nothing for chiplets to
    // recover, so overheads make partitioning strictly worse.
    EXPECT_EQ(optimalDieCount(partitionSweep(800.0, 1e-6)), 1);
}

TEST(Chiplets, InvalidArgumentsAreFatal)
{
    pkg::PackageSpec spec;
    spec.chiplets.push_back(pkg::splitLogicDie(
        squareMillimeters(100.0), 0, 7.0, DefectParams{}, 0.10));
    EXPECT_EXIT(pkg::validatePackageSpec(spec),
                ::testing::ExitedWithCode(1), "count must be >= 1");
    spec.style = pkg::PackagingStyle::OrganicSubstrate;
    spec.chiplets = {pkg::splitLogicDie(squareMillimeters(0.0), 2, 7.0,
                                        DefectParams{}, 0.10)};
    EXPECT_EXIT(pkg::validatePackageSpec(spec),
                ::testing::ExitedWithCode(1), "area must be positive");
}

} // namespace
} // namespace act::core

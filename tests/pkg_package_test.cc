/**
 * @file
 * Tests for the packaging layer: pkg::evaluatePackage() over
 * PackageSpecs, and spec validation.
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/embodied.h"
#include "pkg/package.h"

namespace act::pkg {
namespace {

using util::squareMillimeters;

constexpr core::YieldModel kYieldModels[] = {
    core::YieldModel::Poisson,
    core::YieldModel::Murphy,
    core::YieldModel::NegativeBinomial,
};

/** A heterogeneous package under @p style: two compute dies at 5 nm,
 *  one mature I/O die, two cache dies -- or a single monolithic SoC. */
PackageSpec
heteroSpec(PackagingStyle style, core::YieldModel model)
{
    PackageSpec spec = PackageSpec::forStyle(style);
    core::DefectParams leading{0.12, 3.0, model};
    if (style == PackagingStyle::Monolithic) {
        spec.chiplets.push_back(
            {"soc", squareMillimeters(300.0), 7.0, leading, 1});
        return spec;
    }
    core::DefectParams mature{0.08, 2.0, model};
    spec.chiplets.push_back(
        {"compute", squareMillimeters(150.0), 5.0, leading, 2});
    spec.chiplets.push_back(
        {"io", squareMillimeters(90.0), 28.0, mature, 1});
    spec.chiplets.push_back(
        {"cache", squareMillimeters(60.0), 14.0, leading, 2});
    return spec;
}

// ---------------------------------------------------------------------
// Oracle structure
// ---------------------------------------------------------------------

TEST(PackageOracle, StyleNamesRoundTrip)
{
    for (const PackagingStyle style : kPackagingStyles)
        EXPECT_EQ(packagingStyleByName(packagingStyleName(style)),
                  style);
}

TEST(PackageOracle, BondCounts)
{
    EXPECT_EQ(bondCount(PackagingStyle::Monolithic, 1), 0);
    EXPECT_EQ(bondCount(PackagingStyle::OrganicSubstrate, 5), 5);
    EXPECT_EQ(bondCount(PackagingStyle::SiliconInterposer, 4), 4);
    EXPECT_EQ(bondCount(PackagingStyle::Stacked3D, 4), 3);
}

TEST(PackageOracle, ComponentsAddUpUnderPackageYield)
{
    const core::FabParams fab;
    for (const PackagingStyle style : kPackagingStyles) {
        for (const core::YieldModel model : kYieldModels) {
            const PackageSpec spec = heteroSpec(style, model);
            const PackageResult result = evaluatePackage(spec, fab);
            EXPECT_EQ(result.die_count, spec.dieCount());
            EXPECT_EQ(result.package_yield,
                      std::pow(spec.bond_yield,
                               bondCount(style, spec.dieCount())));
            EXPECT_EQ(util::asGrams(result.total),
                      (util::asGrams(result.silicon_embodied) +
                       util::asGrams(result.substrate_embodied) +
                       util::asGrams(result.assembly_embodied)) /
                          result.package_yield);
            EXPECT_GT(
                util::asSquareCentimeters(result.effective_silicon),
                util::asSquareCentimeters(result.silicon_area));
            EXPECT_GT(result.min_die_yield, 0.0);
            EXPECT_LT(result.min_die_yield, 1.0);
        }
    }
}

TEST(PackageOracle, TsvOverheadInflatesStackedSilicon)
{
    const core::FabParams fab;
    PackageSpec spec =
        heteroSpec(PackagingStyle::Stacked3D,
                   core::YieldModel::NegativeBinomial);
    const PackageResult with_tsv = evaluatePackage(spec, fab);
    spec.tsv_area_overhead = 0.0;
    const PackageResult without = evaluatePackage(spec, fab);
    EXPECT_GT(util::asSquareCentimeters(with_tsv.silicon_area),
              util::asSquareCentimeters(without.silicon_area));
    EXPECT_GT(util::asGrams(with_tsv.silicon_embodied),
              util::asGrams(without.silicon_embodied));
}

TEST(PackageOracle, OrganicSubstrateSignalsAtOnePjPerBit)
{
    const core::FabParams fab;
    const PackageResult result = evaluatePackage(
        heteroSpec(PackagingStyle::OrganicSubstrate,
                   core::YieldModel::Poisson),
        fab);
    EXPECT_EQ(result.d2d_energy_pj_per_bit, 1.0);
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

class PackageDeathTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ::testing::FLAGS_gtest_death_test_style = "threadsafe";
        spec_ = heteroSpec(PackagingStyle::OrganicSubstrate,
                           core::YieldModel::NegativeBinomial);
    }

    PackageSpec spec_;
};

TEST_F(PackageDeathTest, EmptyChipletListIsFatal)
{
    spec_.chiplets.clear();
    EXPECT_EXIT(validatePackageSpec(spec_),
                ::testing::ExitedWithCode(1), "empty chiplet list");
}

TEST_F(PackageDeathTest, NonPositiveCountOrAreaIsFatal)
{
    PackageSpec bad = spec_;
    bad.chiplets[0].count = 0;
    EXPECT_EXIT(validatePackageSpec(bad),
                ::testing::ExitedWithCode(1), "count must be >= 1");
    bad = spec_;
    bad.chiplets[1].area = squareMillimeters(0.0);
    EXPECT_EXIT(validatePackageSpec(bad),
                ::testing::ExitedWithCode(1), "area must be positive");
}

TEST_F(PackageDeathTest, NegativeOverheadsAreFatal)
{
    PackageSpec bad = spec_;
    bad.substrate_area_factor = -0.1;
    EXPECT_EXIT(validatePackageSpec(bad),
                ::testing::ExitedWithCode(1), "substrate area factor");
    bad = spec_;
    bad.assembly_overhead_fraction = -0.5;
    EXPECT_EXIT(validatePackageSpec(bad),
                ::testing::ExitedWithCode(1),
                "assembly overhead fraction");
    bad = spec_;
    bad.d2d_energy_pj_per_bit = -1.0;
    EXPECT_EXIT(validatePackageSpec(bad),
                ::testing::ExitedWithCode(1), "die-to-die energy");
    bad = heteroSpec(PackagingStyle::Stacked3D,
                     core::YieldModel::Poisson);
    bad.tsv_area_overhead = -0.05;
    EXPECT_EXIT(validatePackageSpec(bad),
                ::testing::ExitedWithCode(1), "TSV area overhead");
}

TEST_F(PackageDeathTest, NonPositiveSubstrateNodeIsFatal)
{
    spec_.substrate_node_nm = 0.0;
    EXPECT_EXIT(validatePackageSpec(spec_),
                ::testing::ExitedWithCode(1), "substrate node");
}

TEST_F(PackageDeathTest, BondYieldOutsideUnitIntervalIsFatal)
{
    PackageSpec bad = spec_;
    bad.bond_yield = 0.0;
    EXPECT_EXIT(validatePackageSpec(bad),
                ::testing::ExitedWithCode(1), "bond yield");
    bad.bond_yield = 1.5;
    EXPECT_EXIT(validatePackageSpec(bad),
                ::testing::ExitedWithCode(1), "bond yield");
}

TEST_F(PackageDeathTest, TsvOutsideStackedStyleIsFatal)
{
    spec_.tsv_area_overhead = 0.05;
    EXPECT_EXIT(validatePackageSpec(spec_),
                ::testing::ExitedWithCode(1), "3D stacks");
}

TEST_F(PackageDeathTest, MultiDieMonolithicIsFatal)
{
    PackageSpec bad = heteroSpec(PackagingStyle::Monolithic,
                                 core::YieldModel::Poisson);
    bad.chiplets[0].count = 2;
    EXPECT_EXIT(validatePackageSpec(bad),
                ::testing::ExitedWithCode(1), "exactly one die");
}

TEST_F(PackageDeathTest, UnknownStyleNameIsFatal)
{
    EXPECT_EXIT(packagingStyleByName("bogus"),
                ::testing::ExitedWithCode(1), "unknown packaging");
}

} // namespace
} // namespace act::pkg

/** @file Tests for the mobile SoC database backing Figs. 8 and 14. */

#include <gtest/gtest.h>

#include "data/soc_db.h"
#include "util/stats.h"

namespace act::data {
namespace {

const SocDatabase &db = SocDatabase::instance();

TEST(SocDb, HasAllThirteenChipsets)
{
    EXPECT_EQ(db.records().size(), 13u);
    for (const char *name :
         {"Exynos 9820", "Exynos 9810", "Exynos 8895", "Exynos 7420",
          "Snapdragon 865", "Snapdragon 855", "Snapdragon 845",
          "Snapdragon 835", "Snapdragon 820", "Kirin 990", "Kirin 980",
          "Kirin 970", "Kirin 960"}) {
        EXPECT_TRUE(db.findByName(name).has_value()) << name;
    }
}

TEST(SocDb, LookupIsCaseInsensitiveAndFatalOnMiss)
{
    EXPECT_TRUE(db.findByName("kirin 990").has_value());
    EXPECT_FALSE(db.findByName("Kirin 9000").has_value());
    EXPECT_EXIT(db.byNameOrDie("Apple A13"), ::testing::ExitedWithCode(1),
                "");
}

TEST(SocDb, KnownSpecs)
{
    const SocRecord sd835 = db.byNameOrDie("Snapdragon 835");
    EXPECT_DOUBLE_EQ(sd835.node_nm, 10.0);
    EXPECT_NEAR(util::asSquareMillimeters(sd835.die_area), 72.3, 1e-9);
    EXPECT_DOUBLE_EQ(util::asGigabytes(sd835.dram_capacity), 4.0);
    EXPECT_EQ(sd835.dram_technology, "LPDDR4");

    const SocRecord kirin980 = db.byNameOrDie("Kirin 980");
    EXPECT_DOUBLE_EQ(kirin980.node_nm, 7.0);
    EXPECT_EQ(kirin980.release_year, 2018);
}

TEST(SocDb, FamilyByYearIsSortedOldestFirst)
{
    for (SocFamily family : {SocFamily::Exynos, SocFamily::Snapdragon,
                             SocFamily::Kirin}) {
        const auto chipsets = db.familyByYear(family);
        ASSERT_GE(chipsets.size(), 4u);
        for (std::size_t i = 1; i < chipsets.size(); ++i) {
            EXPECT_LE(chipsets[i - 1].release_year,
                      chipsets[i].release_year);
            EXPECT_EQ(chipsets[i].family, family);
        }
    }
}

TEST(SocDb, FamilyNames)
{
    EXPECT_EQ(familyName(SocFamily::Exynos), "Exynos");
    EXPECT_EQ(familyName(SocFamily::Snapdragon), "Snapdragon");
    EXPECT_EQ(familyName(SocFamily::Kirin), "Kirin");
}

/** Per-chipset sanity properties. */
class SocRecords : public ::testing::TestWithParam<std::string> {};

TEST_P(SocRecords, SpecsArePhysical)
{
    const SocRecord soc = db.byNameOrDie(GetParam());
    EXPECT_GE(soc.node_nm, 7.0);
    EXPECT_LE(soc.node_nm, 16.0);
    EXPECT_GT(util::asSquareMillimeters(soc.die_area), 50.0);
    EXPECT_LT(util::asSquareMillimeters(soc.die_area), 150.0);
    EXPECT_GE(util::asGigabytes(soc.dram_capacity), 3.0);
    EXPECT_LE(util::asGigabytes(soc.dram_capacity), 8.0);
    EXPECT_GT(util::asWatts(soc.tdp), 4.0);
    EXPECT_LT(util::asWatts(soc.tdp), 9.0);
    for (double score : soc.workload_scores)
        EXPECT_GT(score, 0.0);
}

TEST_P(SocRecords, AggregateIsGeomeanOfWorkloads)
{
    const SocRecord soc = db.byNameOrDie(GetParam());
    EXPECT_NEAR(soc.aggregateScore(),
                util::geomean(std::span<const double>(soc.workload_scores)),
                1e-9);
    EXPECT_NEAR(soc.efficiencyScorePerWatt(),
                soc.aggregateScore() / util::asWatts(soc.tdp), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllChipsets, SocRecords,
    ::testing::Values("Exynos 9820", "Exynos 9810", "Exynos 8895",
                      "Exynos 7420", "Snapdragon 865", "Snapdragon 855",
                      "Snapdragon 845", "Snapdragon 835",
                      "Snapdragon 820", "Kirin 990", "Kirin 980",
                      "Kirin 970", "Kirin 960"));

TEST(SocDb, NewerGenerationsAreFaster)
{
    // Within each family, aggregate performance increases by release
    // year (Fig. 8(a) "newer architectures have higher performance").
    for (SocFamily family : {SocFamily::Exynos, SocFamily::Snapdragon,
                             SocFamily::Kirin}) {
        const auto chipsets = db.familyByYear(family);
        for (std::size_t i = 1; i < chipsets.size(); ++i) {
            EXPECT_GT(chipsets[i].aggregateScore(),
                      chipsets[i - 1].aggregateScore())
                << chipsets[i].name;
        }
    }
}

TEST(SocDb, AesFavorsSnapdragonFlavor)
{
    // The per-family flavor model gives Snapdragon a crypto edge.
    const SocRecord sd = db.byNameOrDie("Snapdragon 845");
    const std::size_t aes =
        static_cast<std::size_t>(MobileWorkload::AesEncryption);
    EXPECT_GT(sd.workload_scores[aes], sd.aggregateScore());
}

} // namespace
} // namespace act::data

/** @file Tests for the Table 9/10/11 storage carbon databases. */

#include <gtest/gtest.h>

#include "data/memory_db.h"

namespace act::data {
namespace {

TEST(Table9, ExactDramValues)
{
    EXPECT_DOUBLE_EQ(storageOrDie("50nm DDR3").cps.value(), 600.0);
    EXPECT_DOUBLE_EQ(storageOrDie("40nm DDR3").cps.value(), 315.0);
    EXPECT_DOUBLE_EQ(storageOrDie("30nm DDR3").cps.value(), 230.0);
    EXPECT_DOUBLE_EQ(storageOrDie("30nm LPDDR3").cps.value(), 201.0);
    EXPECT_DOUBLE_EQ(storageOrDie("20nm LPDDR3").cps.value(), 184.0);
    EXPECT_DOUBLE_EQ(storageOrDie("20nm LPDDR2").cps.value(), 159.0);
    EXPECT_DOUBLE_EQ(storageOrDie("LPDDR4").cps.value(), 48.0);
    EXPECT_DOUBLE_EQ(storageOrDie("10nm DDR4").cps.value(), 65.0);
}

TEST(Table10, ExactSsdValues)
{
    EXPECT_DOUBLE_EQ(storageOrDie("30nm NAND").cps.value(), 30.0);
    EXPECT_DOUBLE_EQ(storageOrDie("20nm NAND").cps.value(), 15.0);
    EXPECT_DOUBLE_EQ(storageOrDie("10nm NAND").cps.value(), 10.0);
    EXPECT_DOUBLE_EQ(storageOrDie("1z NAND TLC").cps.value(), 5.6);
    EXPECT_DOUBLE_EQ(storageOrDie("V3 NAND TLC").cps.value(), 6.3);
    EXPECT_DOUBLE_EQ(storageOrDie("Western Digital 2016").cps.value(),
                     24.4);
    EXPECT_DOUBLE_EQ(storageOrDie("Western Digital 2019").cps.value(),
                     10.7);
    EXPECT_DOUBLE_EQ(storageOrDie("Seagate Nytro 1551").cps.value(),
                     3.95);
    EXPECT_DOUBLE_EQ(storageOrDie("Seagate Nytro 3331").cps.value(),
                     16.92);
}

TEST(Table11, ExactHddValues)
{
    EXPECT_DOUBLE_EQ(storageOrDie("BarraCuda").cps.value(), 4.57);
    EXPECT_DOUBLE_EQ(storageOrDie("BarraCuda2").cps.value(), 10.32);
    EXPECT_DOUBLE_EQ(storageOrDie("BarraCuda Pro").cps.value(), 2.35);
    EXPECT_DOUBLE_EQ(storageOrDie("FireCuda").cps.value(), 5.1);
    EXPECT_DOUBLE_EQ(storageOrDie("FireCuda 2").cps.value(), 9.1);
    EXPECT_DOUBLE_EQ(storageOrDie("Exos2x14").cps.value(), 1.65);
    EXPECT_DOUBLE_EQ(storageOrDie("Exosx12").cps.value(), 1.14);
    EXPECT_DOUBLE_EQ(storageOrDie("Exosx16").cps.value(), 1.33);
    EXPECT_DOUBLE_EQ(storageOrDie("Exos15e900").cps.value(), 20.5);
    EXPECT_DOUBLE_EQ(storageOrDie("Exos10e2400").cps.value(), 10.3);
}

TEST(StorageTables, RowCountsMatchPaper)
{
    EXPECT_EQ(storageTable(StorageClass::Dram).size(), 8u);
    EXPECT_EQ(storageTable(StorageClass::Ssd).size(), 12u);
    EXPECT_EQ(storageTable(StorageClass::Hdd).size(), 10u);
}

TEST(StorageTables, ClassesAreConsistent)
{
    for (StorageClass cls :
         {StorageClass::Dram, StorageClass::Ssd, StorageClass::Hdd}) {
        for (const auto &record : storageTable(cls)) {
            EXPECT_EQ(record.storage_class, cls);
            EXPECT_GT(record.cps.value(), 0.0);
        }
    }
}

TEST(StorageTables, HddSegmentsAssigned)
{
    for (const auto &record : storageTable(StorageClass::Hdd))
        EXPECT_NE(record.segment, StorageSegment::NotApplicable);
    EXPECT_EQ(storageOrDie("Exosx12").segment,
              StorageSegment::Enterprise);
    EXPECT_EQ(storageOrDie("BarraCuda").segment,
              StorageSegment::Consumer);
}

TEST(StorageTables, NewerNandNodesCheaperPerGb)
{
    // Fig. 7: at commensurate nodes newer NAND is lower carbon/GB.
    EXPECT_GT(storageOrDie("30nm NAND").cps.value(),
              storageOrDie("20nm NAND").cps.value());
    EXPECT_GT(storageOrDie("20nm NAND").cps.value(),
              storageOrDie("10nm NAND").cps.value());
    EXPECT_GT(storageOrDie("10nm NAND").cps.value(),
              storageOrDie("1z NAND TLC").cps.value());
}

TEST(StorageTables, DramDenserThanSsdAtCommensurateNodes)
{
    // Fig. 7: DRAM carbon/GB exceeds SSD carbon/GB at similar nodes.
    EXPECT_GT(storageOrDie("30nm DDR3").cps.value(),
              storageOrDie("30nm NAND").cps.value());
    EXPECT_GT(storageOrDie("10nm DDR4").cps.value(),
              storageOrDie("10nm NAND").cps.value());
}

TEST(Lookup, CaseInsensitiveAndMissing)
{
    EXPECT_TRUE(findStorage("lpddr4").has_value());
    EXPECT_TRUE(findStorage("V3 nand tlc").has_value());
    EXPECT_FALSE(findStorage("optane").has_value());
    EXPECT_EXIT(storageOrDie("optane"), ::testing::ExitedWithCode(1), "");
}

TEST(Defaults, ExpectedTechnologies)
{
    EXPECT_EQ(defaultDram().name, "LPDDR4");
    EXPECT_EQ(defaultSsd().name, "V3 NAND TLC");
}

} // namespace
} // namespace act::data

#include "data/memory_db.h"

#include <array>

#include "util/logging.h"
#include "util/strings.h"

namespace act::data {

using util::gramsPerGigabyte;

namespace {

// Table 9: embodied carbon of DRAM (SK hynix sustainability reports;
// LPDDR4 comes from Apple's component-level product reports).
const std::array<StorageRecord, 8> kDramTable = {{
    {StorageClass::Dram, "50nm DDR3", gramsPerGigabyte(600.0),
     Characterization::DeviceLevel},
    {StorageClass::Dram, "40nm DDR3", gramsPerGigabyte(315.0),
     Characterization::DeviceLevel},
    {StorageClass::Dram, "30nm DDR3", gramsPerGigabyte(230.0),
     Characterization::DeviceLevel},
    {StorageClass::Dram, "30nm LPDDR3", gramsPerGigabyte(201.0),
     Characterization::DeviceLevel},
    {StorageClass::Dram, "20nm LPDDR3", gramsPerGigabyte(184.0),
     Characterization::DeviceLevel},
    {StorageClass::Dram, "20nm LPDDR2", gramsPerGigabyte(159.0),
     Characterization::DeviceLevel},
    {StorageClass::Dram, "LPDDR4", gramsPerGigabyte(48.0),
     Characterization::ComponentLevel},
    {StorageClass::Dram, "10nm DDR4", gramsPerGigabyte(65.0),
     Characterization::DeviceLevel},
}};

// Table 10: embodied carbon of SSD storage.
const std::array<StorageRecord, 12> kSsdTable = {{
    {StorageClass::Ssd, "30nm NAND", gramsPerGigabyte(30.0),
     Characterization::DeviceLevel},
    {StorageClass::Ssd, "20nm NAND", gramsPerGigabyte(15.0),
     Characterization::DeviceLevel},
    {StorageClass::Ssd, "10nm NAND", gramsPerGigabyte(10.0),
     Characterization::DeviceLevel},
    {StorageClass::Ssd, "1z NAND TLC", gramsPerGigabyte(5.6),
     Characterization::DeviceLevel},
    {StorageClass::Ssd, "V3 NAND TLC", gramsPerGigabyte(6.3),
     Characterization::DeviceLevel},
    {StorageClass::Ssd, "Western Digital 2016", gramsPerGigabyte(24.4),
     Characterization::ComponentLevel},
    {StorageClass::Ssd, "Western Digital 2017", gramsPerGigabyte(17.9),
     Characterization::ComponentLevel},
    {StorageClass::Ssd, "Western Digital 2018", gramsPerGigabyte(12.5),
     Characterization::ComponentLevel},
    {StorageClass::Ssd, "Western Digital 2019", gramsPerGigabyte(10.7),
     Characterization::ComponentLevel},
    {StorageClass::Ssd, "Seagate Nytro 1551", gramsPerGigabyte(3.95),
     Characterization::ComponentLevel},
    {StorageClass::Ssd, "Seagate Nytro 3530", gramsPerGigabyte(6.21),
     Characterization::ComponentLevel},
    {StorageClass::Ssd, "Seagate Nytro 3331", gramsPerGigabyte(16.92),
     Characterization::ComponentLevel},
}};

// Table 11: embodied carbon of Seagate HDD storage.
const std::array<StorageRecord, 10> kHddTable = {{
    {StorageClass::Hdd, "BarraCuda", gramsPerGigabyte(4.57),
     Characterization::ComponentLevel, StorageSegment::Consumer},
    {StorageClass::Hdd, "BarraCuda2", gramsPerGigabyte(10.32),
     Characterization::ComponentLevel, StorageSegment::Consumer},
    {StorageClass::Hdd, "BarraCuda Pro", gramsPerGigabyte(2.35),
     Characterization::ComponentLevel, StorageSegment::Consumer},
    {StorageClass::Hdd, "FireCuda", gramsPerGigabyte(5.1),
     Characterization::ComponentLevel, StorageSegment::Consumer},
    {StorageClass::Hdd, "FireCuda 2", gramsPerGigabyte(9.1),
     Characterization::ComponentLevel, StorageSegment::Consumer},
    {StorageClass::Hdd, "Exos2x14", gramsPerGigabyte(1.65),
     Characterization::ComponentLevel, StorageSegment::Enterprise},
    {StorageClass::Hdd, "Exosx12", gramsPerGigabyte(1.14),
     Characterization::ComponentLevel, StorageSegment::Enterprise},
    {StorageClass::Hdd, "Exosx16", gramsPerGigabyte(1.33),
     Characterization::ComponentLevel, StorageSegment::Enterprise},
    {StorageClass::Hdd, "Exos15e900", gramsPerGigabyte(20.5),
     Characterization::ComponentLevel, StorageSegment::Enterprise},
    {StorageClass::Hdd, "Exos10e2400", gramsPerGigabyte(10.3),
     Characterization::ComponentLevel, StorageSegment::Enterprise},
}};

} // namespace

std::span<const StorageRecord>
storageTable(StorageClass storage_class)
{
    switch (storage_class) {
      case StorageClass::Dram:
        return kDramTable;
      case StorageClass::Ssd:
        return kSsdTable;
      case StorageClass::Hdd:
        return kHddTable;
    }
    util::panic("unknown StorageClass enumerator");
}

std::optional<StorageRecord>
findStorage(std::string_view name)
{
    const std::string lowered = util::toLower(name);
    for (StorageClass cls :
         {StorageClass::Dram, StorageClass::Ssd, StorageClass::Hdd}) {
        for (const auto &record : storageTable(cls)) {
            if (util::toLower(record.name) == lowered)
                return record;
        }
    }
    return std::nullopt;
}

StorageRecord
storageOrDie(std::string_view name)
{
    auto record = findStorage(name);
    if (!record)
        util::fatal("unknown storage technology '", std::string(name), "'");
    return *record;
}

StorageRecord
defaultDram()
{
    return storageOrDie("LPDDR4");
}

StorageRecord
defaultSsd()
{
    return storageOrDie("V3 NAND TLC");
}

} // namespace act::data

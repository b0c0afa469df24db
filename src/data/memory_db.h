/**
 * @file
 * Embodied carbon-per-capacity characterization for DRAM (Table 9),
 * NAND-flash SSDs (Table 10), and HDDs (Table 11), as plotted in Fig. 7.
 * Each record notes whether it comes from device-level fab
 * characterization (SK hynix; black bars in Fig. 7) or component-level
 * vendor analyses (Apple, Western Digital, Seagate; grey bars).
 */

#ifndef ACT_DATA_MEMORY_DB_H
#define ACT_DATA_MEMORY_DB_H

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "util/units.h"

namespace act::data {

/** Which storage family a record belongs to. */
enum class StorageClass
{
    Dram,
    Ssd,
    Hdd,
};

/** Provenance of a carbon-per-size figure (Fig. 7 black vs grey). */
enum class Characterization
{
    DeviceLevel,
    ComponentLevel,
};

/** Market segment for HDD rows (Table 11 middle column). */
enum class StorageSegment
{
    NotApplicable,
    Consumer,
    Enterprise,
};

/** One row of Tables 9-11. */
struct StorageRecord
{
    StorageClass storage_class;
    std::string name;
    util::CarbonPerCapacity cps;
    Characterization characterization;
    StorageSegment segment = StorageSegment::NotApplicable;
};

/** All rows for one storage class, in the paper's table order. */
std::span<const StorageRecord> storageTable(StorageClass storage_class);

/** Case-insensitive lookup across all three tables. */
std::optional<StorageRecord> findStorage(std::string_view name);

/** Like findStorage() but fatal when the name is unknown. */
StorageRecord storageOrDie(std::string_view name);

/**
 * Default technologies used when a case study does not pin a specific
 * part: modern mobile LPDDR4 DRAM and V3 TLC NAND.
 */
StorageRecord defaultDram();
StorageRecord defaultSsd();

} // namespace act::data

#endif // ACT_DATA_MEMORY_DB_H

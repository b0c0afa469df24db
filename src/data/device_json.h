/**
 * @file
 * JSON loading of device bills of materials, so users can
 * evaluate their own platforms without recompiling (mirroring the
 * released tool's config-file workflow). A device file looks like:
 *
 *   {
 *     "name": "my-phone",
 *     "release_year": 2024,
 *     "ics": [
 *       {"name": "SoC", "kind": "logic", "category": "main_soc",
 *        "area_mm2": 100, "node_nm": 5, "packages": 1},
 *       {"name": "DRAM", "kind": "dram", "category": "dram",
 *        "capacity_gb": 12, "technology": "LPDDR4"},
 *       {"name": "Flash", "kind": "nand", "category": "flash",
 *        "capacity_gb": 256, "technology": "1z NAND TLC"}
 *     ],
 *     "lca": {"total_kg": 60, "production_share": 0.8,
 *             "use_share": 0.15, "transport_share": 0.04,
 *             "eol_share": 0.01, "ic_share_of_production": 0.44}
 *   }
 */

#ifndef ACT_DATA_DEVICE_JSON_H
#define ACT_DATA_DEVICE_JSON_H

#include <string>

#include "config/json.h"
#include "data/device_db.h"

namespace act::data {

/** Parse a device from JSON. Throws config::JsonTypeError naming the
 *  field (and its "ics[i]" entry) on malformed or inconsistent
 *  definitions: unknown kinds/categories, missing fields, unknown
 *  storage technologies or fab nodes, out-of-range nodes or counts. */
DeviceRecord deviceFromJson(const config::JsonValue &value);

/** Load a device file; fatal, naming the file, on I/O, parse or field
 *  errors. */
DeviceRecord loadDeviceFile(const std::string &path);

} // namespace act::data

#endif // ACT_DATA_DEVICE_JSON_H

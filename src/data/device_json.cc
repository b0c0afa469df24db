#include "data/device_json.h"

#include <climits>
#include <utility>

#include "data/fab_db.h"
#include "data/memory_db.h"
#include "util/logging.h"

namespace act::data {

using config::JsonArray;
using config::JsonObject;
using config::JsonValue;

namespace {

constexpr config::Choice<IcKind> kKindNames[] = {
    {"logic", IcKind::Logic},
    {"dram", IcKind::Dram},
    {"nand", IcKind::Nand},
    {"hdd", IcKind::Hdd},
};

constexpr config::Choice<IcCategory> kCategoryNames[] = {
    {"main_soc", IcCategory::MainSoc},
    {"camera", IcCategory::CameraIc},
    {"dram", IcCategory::Dram},
    {"flash", IcCategory::Flash},
    {"hdd", IcCategory::Hdd},
    {"other", IcCategory::OtherIc},
};

/** @p value's name in @p table. */
template <typename T, std::size_t N>
std::string
nameOf(const config::Choice<T> (&table)[N], T value)
{
    for (const auto &[name, candidate] : table) {
        if (candidate == value)
            return std::string(name);
    }
    util::panic("enumerator missing from its name table");
}

IcComponent
icFromJson(const JsonValue &value)
{
    IcComponent ic;
    ic.name = value.at("name").asString();
    ic.kind = config::choice(value, "kind", kKindNames);
    ic.category = config::choice(value, "category", IcCategory::OtherIc,
                                 kCategoryNames);
    ic.package_count = static_cast<int>(
        config::count(value, "packages", 1, {1, INT_MAX}));

    if (ic.kind == IcKind::Logic) {
        ic.area = util::squareMillimeters(
            config::number(value, "area_mm2", config::above(0.0)));
        ic.fab_node_name = value.stringOr("fab_node", "");
        // A named fab node carries its own node; otherwise the node
        // must lie in the modeled range.
        ic.node_nm = config::number(
            value, "node_nm",
            ic.fab_node_name.empty()
                ? config::closed(FabDatabase::kMinNode, FabDatabase::kMaxNode)
                : config::Interval{});
        if (!ic.fab_node_name.empty() &&
            !FabDatabase::instance().findByName(ic.fab_node_name)) {
            config::badField("fab_node", "a known fab node",
                             value.at("fab_node"));
        }
    } else {
        ic.capacity = util::gigabytes(
            config::number(value, "capacity_gb", config::above(0.0)));
        ic.technology = value.at("technology").asString();
        if (!findStorage(ic.technology)) {
            config::badField("technology", "a known storage technology",
                             value.at("technology"));
        }
    }
    return ic;
}

JsonValue
toJson(const IcComponent &ic)
{
    JsonObject object;
    object["name"] = JsonValue(ic.name);
    object["kind"] = JsonValue(nameOf(kKindNames, ic.kind));
    object["category"] = JsonValue(nameOf(kCategoryNames, ic.category));
    object["packages"] = JsonValue(ic.package_count);
    if (ic.kind == IcKind::Logic) {
        object["area_mm2"] =
            JsonValue(util::asSquareMillimeters(ic.area));
        object["node_nm"] = JsonValue(ic.node_nm);
        if (!ic.fab_node_name.empty())
            object["fab_node"] = JsonValue(ic.fab_node_name);
    } else {
        object["capacity_gb"] =
            JsonValue(util::asGigabytes(ic.capacity));
        object["technology"] = JsonValue(ic.technology);
    }
    return JsonValue(std::move(object));
}

LcaProfile
lcaFromJson(const JsonValue &value)
{
    LcaProfile lca;
    lca.total = util::kilograms(config::number(value, "total_kg", 0.0));
    lca.production_share = config::number(value, "production_share", 0.0);
    lca.use_share = config::number(value, "use_share", 0.0);
    lca.transport_share = config::number(value, "transport_share", 0.0);
    lca.eol_share = config::number(value, "eol_share", 0.0);
    lca.ic_share_of_production =
        config::number(value, "ic_share_of_production", 0.44);
    return lca;
}

} // namespace

DeviceRecord
deviceFromJson(const JsonValue &value)
{
    DeviceRecord device;
    device.name = value.at("name").asString();
    device.release_year = static_cast<int>(
        config::count(value, "release_year", 0, {0, INT_MAX}));
    if (value.contains("ics")) {
        const config::JsonArray &ics = value.at("ics").asArray();
        for (std::size_t i = 0; i < ics.size(); ++i) {
            device.ics.push_back(config::inContext(
                [&] { return icFromJson(ics[i]); }, "ics[", i, "]"));
        }
    }
    if (value.contains("lca")) {
        device.lca = config::inContext(
            [&] { return lcaFromJson(value.at("lca")); }, "lca");
    }
    return device;
}

JsonValue
toJson(const DeviceRecord &device)
{
    JsonObject object;
    object["name"] = JsonValue(device.name);
    object["release_year"] = JsonValue(device.release_year);
    JsonArray ics;
    for (const auto &ic : device.ics)
        ics.push_back(toJson(ic));
    object["ics"] = JsonValue(std::move(ics));

    JsonObject lca;
    lca["total_kg"] = JsonValue(util::asKilograms(device.lca.total));
    lca["production_share"] = JsonValue(device.lca.production_share);
    lca["use_share"] = JsonValue(device.lca.use_share);
    lca["transport_share"] = JsonValue(device.lca.transport_share);
    lca["eol_share"] = JsonValue(device.lca.eol_share);
    lca["ic_share_of_production"] =
        JsonValue(device.lca.ic_share_of_production);
    object["lca"] = JsonValue(std::move(lca));
    return JsonValue(std::move(object));
}

DeviceRecord
loadDeviceFile(const std::string &path)
{
    return config::loadJsonAs(path, "device file", deviceFromJson);
}

void
saveDeviceFile(const std::string &path, const DeviceRecord &device)
{
    config::saveJsonFile(path, toJson(device));
}

} // namespace act::data

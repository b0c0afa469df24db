#include "data/device_json.h"

#include <climits>

#include "data/fab_db.h"
#include "data/memory_db.h"

namespace act::data {

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

DeviceRecord
loadDeviceFile(const std::string &path)
{
    return config::loadJsonAs(path, "device file", deviceFromJson);
}

} // namespace act::data

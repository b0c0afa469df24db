/** @file Tests for JSON device definitions and life-cycle estimation. */

#include <gtest/gtest.h>

#include <fstream>

#include "core/lifecycle.h"
#include "data/device_json.h"

namespace act::data {
namespace {

const char *kCustomPhone = R"({
    "name": "custom-phone",
    "release_year": 2024,
    "ics": [
        {"name": "SoC", "kind": "logic", "category": "main_soc",
         "area_mm2": 100, "node_nm": 5, "packages": 1},
        {"name": "Modem", "kind": "logic", "area_mm2": 50,
         "node_nm": 7, "fab_node": "7nm-EUV"},
        {"name": "DRAM", "kind": "dram", "category": "dram",
         "capacity_gb": 12, "technology": "LPDDR4"},
        {"name": "Flash", "kind": "nand", "category": "flash",
         "capacity_gb": 256, "technology": "1z NAND TLC",
         "packages": 2}
    ],
    "lca": {"total_kg": 60, "production_share": 0.8,
            "use_share": 0.15, "transport_share": 0.04,
            "eol_share": 0.01, "ic_share_of_production": 0.5}
})";

TEST(DeviceJson, ParsesCustomDevice)
{
    const DeviceRecord device =
        deviceFromJson(config::JsonValue::parse(kCustomPhone));
    EXPECT_EQ(device.name, "custom-phone");
    EXPECT_EQ(device.release_year, 2024);
    ASSERT_EQ(device.ics.size(), 4u);
    EXPECT_EQ(device.ics[0].kind, IcKind::Logic);
    EXPECT_EQ(device.ics[0].category, IcCategory::MainSoc);
    EXPECT_DOUBLE_EQ(
        util::asSquareMillimeters(device.ics[0].area), 100.0);
    EXPECT_EQ(device.ics[1].fab_node_name, "7nm-EUV");
    EXPECT_EQ(device.ics[1].category, IcCategory::OtherIc);  // default
    EXPECT_DOUBLE_EQ(util::asGigabytes(device.ics[3].capacity), 256.0);
    EXPECT_EQ(device.ics[3].package_count, 2);
    EXPECT_DOUBLE_EQ(util::asKilograms(device.lca.total), 60.0);
}

TEST(DeviceJson, EvaluatesUnderTheEmbodiedModel)
{
    const DeviceRecord device =
        deviceFromJson(config::JsonValue::parse(kCustomPhone));
    const core::EmbodiedModel model;
    const auto footprint = model.evaluate(device);
    EXPECT_GT(util::asKilograms(footprint.total()), 2.0);
    EXPECT_EQ(footprint.package_count, 5);
    // 12 GB LPDDR4 at 48 g/GB.
    EXPECT_DOUBLE_EQ(
        util::asGrams(footprint.categoryTotal(IcCategory::Dram)),
        12.0 * 48.0);
}

/** The message deviceFromJson() throws for @p text. */
std::string
deviceError(const char *text)
{
    try {
        deviceFromJson(config::JsonValue::parse(text));
    } catch (const config::JsonTypeError &error) {
        return error.what();
    }
    ADD_FAILURE() << "expected JsonTypeError for " << text;
    return "";
}

TEST(DeviceJson, RejectsBadDefinitionsNamingTheField)
{
    // Unknown kind.
    EXPECT_EQ(deviceError(R"({"name": "x", "ics": [
                  {"name": "a", "kind": "quantum"}]})"),
              "ics[0]: 'kind' must be one of 'logic', 'dram', 'nand', "
              "'hdd' (got \"quantum\")");
    // Logic without area.
    EXPECT_EQ(deviceError(R"({"name": "x", "ics": [
                  {"name": "a", "kind": "logic", "node_nm": 7}]})"),
              "ics[0]: missing 'area_mm2'");
    // Out-of-range node.
    EXPECT_EQ(deviceError(R"({"name": "x", "ics": [
                  {"name": "a", "kind": "logic", "area_mm2": 10,
                   "node_nm": 90}]})"),
              "ics[0]: 'node_nm' must be a number in [3, 28] (got 90)");
    // Unknown storage technology.
    EXPECT_EQ(deviceError(R"({"name": "x", "ics": [
                  {"name": "a", "kind": "nand", "capacity_gb": 64,
                   "technology": "optane"}]})"),
              "ics[0]: 'technology' must be a known storage technology "
              "(got \"optane\")");
    // Unknown named fab node.
    EXPECT_EQ(deviceError(R"({"name": "x", "ics": [
                  {"name": "a", "kind": "logic", "area_mm2": 10,
                   "node_nm": 7, "fab_node": "6nm"}]})"),
              "ics[0]: 'fab_node' must be a known fab node (got \"6nm\")");
}

TEST(DeviceJson, CountsAreIntegersInIntRange)
{
    // 2.7 packages used to truncate to 2 and 3e9 to wrap negative.
    EXPECT_EQ(deviceError(R"({"name": "x", "ics": [
                  {"name": "a", "kind": "dram", "capacity_gb": 4,
                   "technology": "LPDDR4", "packages": 2.7}]})"),
              "ics[0]: 'packages' must be an integer in [1, 2147483647] "
              "(got 2.7)");
    EXPECT_EQ(deviceError(R"({"name": "x", "ics": [
                  {"name": "a", "kind": "dram", "capacity_gb": 4,
                   "technology": "LPDDR4", "packages": 3e9}]})"),
              "ics[0]: 'packages' must be an integer in [1, 2147483647] "
              "(got 3e+09)");
    EXPECT_EQ(deviceError(R"({"name": "x", "release_year": 1e300})"),
              "'release_year' must be an integer in [0, 2147483647] "
              "(got 1e+300)");
}

TEST(DeviceJson, LoadsAFile)
{
    const std::string path =
        ::testing::TempDir() + "/act_device_test.json";
    std::ofstream(path) << kCustomPhone;
    const DeviceRecord loaded = loadDeviceFile(path);
    EXPECT_EQ(loaded.name, "custom-phone");
    EXPECT_EQ(loaded.ics.size(), 4u);
    EXPECT_EXIT(loadDeviceFile("/nonexistent/device.json"),
                ::testing::ExitedWithCode(1), "");
}

TEST(Lifecycle, PhasesAnchorOnTheIcModel)
{
    const DeviceRecord device =
        deviceFromJson(config::JsonValue::parse(kCustomPhone));
    const core::FabParams fab;
    const auto estimate = core::estimateLifecycle(device, fab);
    const core::EmbodiedModel model(fab);

    EXPECT_DOUBLE_EQ(util::asGrams(estimate.ic_manufacturing),
                     util::asGrams(model.evaluate(device).total()));
    // ic_share = 0.5, so other manufacturing equals the IC slice.
    EXPECT_NEAR(util::asGrams(estimate.other_manufacturing),
                util::asGrams(estimate.ic_manufacturing), 1e-6);
    // Shares: production 0.8, use 0.15 => use / production = 0.1875.
    EXPECT_NEAR(util::asGrams(estimate.use) /
                    util::asGrams(estimate.manufacturing()),
                0.15 / 0.8, 1e-9);
    EXPECT_GT(estimate.manufacturingShare(), 0.7);
}

TEST(Lifecycle, GreenerFabShrinksTheWholeEstimate)
{
    const auto device =
        DeviceDatabase::instance().byNameOrDie("iPhone 11");
    const auto base =
        core::estimateLifecycle(device, core::FabParams{});
    const auto green = core::estimateLifecycle(
        device, core::FabParams::renewable());
    EXPECT_LT(util::asGrams(green.total()), util::asGrams(base.total()));
}

TEST(Lifecycle, RejectsDevicesWithoutBomOrShares)
{
    const core::FabParams fab;
    const auto no_bom =
        DeviceDatabase::instance().byNameOrDie("iPhone 3GS");
    EXPECT_EXIT(core::estimateLifecycle(no_bom, fab),
                ::testing::ExitedWithCode(1), "");

    DeviceRecord bad = deviceFromJson(
        config::JsonValue::parse(kCustomPhone));
    bad.lca.ic_share_of_production = 0.0;
    EXPECT_EXIT(core::estimateLifecycle(bad, fab),
                ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace act::data

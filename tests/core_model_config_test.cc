/** @file Tests for reading a "fab" configuration section. */

#include <gtest/gtest.h>

#include "core/model_config.h"

namespace act::core {
namespace {

TEST(ModelConfig, MissingKeysKeepDefaults)
{
    const FabParams defaults;
    const FabParams loaded =
        fabParamsFromJson(config::JsonValue::parse("{}"));
    EXPECT_DOUBLE_EQ(loaded.ci_fab.value(), defaults.ci_fab.value());
    EXPECT_DOUBLE_EQ(loaded.abatement, defaults.abatement);
    EXPECT_DOUBLE_EQ(loaded.yield, defaults.yield);
    EXPECT_EQ(loaded.lookup, defaults.lookup);

    const FabParams partial = fabParamsFromJson(config::JsonValue::parse(
        R"({"yield": 0.5, "lookup": "nearest"})"));
    EXPECT_DOUBLE_EQ(partial.yield, 0.5);
    EXPECT_EQ(partial.lookup, data::NodeLookup::NearestAnchor);
    EXPECT_DOUBLE_EQ(partial.abatement, defaults.abatement);
}

TEST(ModelConfig, BadLookupThrowsNamingTheKey)
{
    try {
        fabParamsFromJson(
            config::JsonValue::parse(R"({"lookup": "sideways"})"));
        FAIL() << "expected JsonTypeError";
    } catch (const config::JsonTypeError &error) {
        EXPECT_STREQ(error.what(),
                     "'lookup' must be one of 'interpolate', 'nearest' "
                     "(got \"sideways\")");
    }
}

TEST(ModelConfig, MistypedNumberThrowsNamingTheKey)
{
    try {
        fabParamsFromJson(config::JsonValue::parse(R"({"yield": "0.5"})"));
        FAIL() << "expected JsonTypeError";
    } catch (const config::JsonTypeError &error) {
        EXPECT_STREQ(error.what(), "'yield' must be a number (got \"0.5\")");
    }
}

} // namespace
} // namespace act::core

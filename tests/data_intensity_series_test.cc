/**
 * @file
 * Tests for the IntensitySeries time-series substrate: JSON
 * round-trips through the in-repo config parser, the shipped example
 * series, seasonal composition, and malformed-input fatals.
 */

#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/carbon_intensity_db.h"
#include "data/intensity_series.h"

namespace act::data {
namespace {

using util::gramsPerKilowattHour;

/** Mean sample over one cycle, g CO2/kWh. */
double
averageOf(const IntensitySeries &series)
{
    return std::accumulate(series.samples().begin(),
                           series.samples().end(), 0.0) /
           static_cast<double>(series.size());
}

/** @p series in the explicit-samples JSON form. */
config::JsonValue
explicitJson(const IntensitySeries &series)
{
    config::JsonObject object;
    object["name"] = config::JsonValue(series.name());
    object["step_hours"] = config::JsonValue(series.stepHours());
    config::JsonArray samples(series.samples().begin(),
                              series.samples().end());
    object["samples_g_per_kwh"] = config::JsonValue(std::move(samples));
    return config::JsonValue(std::move(object));
}

TEST(IntensitySeries, FlatSeriesIsConstant)
{
    const auto series =
        IntensitySeries::flat(gramsPerKilowattHour(300.0));
    EXPECT_EQ(series.size(), 24u);
    EXPECT_DOUBLE_EQ(series.stepHours(), 1.0);
    EXPECT_DOUBLE_EQ(series.durationHours(), 24.0);
    for (std::size_t s = 0; s < series.size(); ++s)
        EXPECT_DOUBLE_EQ(series.gramsAt(s), 300.0);
    EXPECT_DOUBLE_EQ(averageOf(series), 300.0);
}

TEST(IntensitySeries, AtWrapsCyclically)
{
    const auto series = IntensitySeries::fromSamples({1.0, 2.0, 3.0});
    EXPECT_DOUBLE_EQ(series.gramsAt(0), 1.0);
    EXPECT_DOUBLE_EQ(series.gramsAt(3), 1.0);
    EXPECT_DOUBLE_EQ(series.gramsAt(7), 2.0);
}

// ---------------------------------------------------------------------
// Seasonal composition
// ---------------------------------------------------------------------

TEST(IntensitySeries, SeasonalTilesTheDay)
{
    const auto day =
        IntensitySeries::solarDay(gramsPerKilowattHour(583.0), 0.25);
    const auto year = IntensitySeries::seasonal(day, 365, 0.15, 0.0);
    EXPECT_EQ(year.size(), 8760u);
    EXPECT_DOUBLE_EQ(year.durationHours(), 8760.0);
    // Day 0 is the peak (dirtiest): scaled by 1 + amplitude.
    EXPECT_DOUBLE_EQ(year.gramsAt(12), day.gramsAt(12) * 1.15);
    // Mid-year trough scaled close to 1 - amplitude.
    const double mid = year.gramsAt(182 * 24 + 12) / day.gramsAt(12);
    EXPECT_NEAR(mid, 0.85, 1e-3);
}

TEST(IntensitySeries, ZeroAmplitudeSeasonalRepeatsExactly)
{
    const auto day =
        IntensitySeries::windDay(gramsPerKilowattHour(400.0), 0.3);
    const auto tiled = IntensitySeries::seasonal(day, 3, 0.0);
    ASSERT_EQ(tiled.size(), 72u);
    for (std::size_t s = 0; s < tiled.size(); ++s)
        EXPECT_EQ(tiled.gramsAt(s), day.gramsAt(s % 24)) << s;
}

// ---------------------------------------------------------------------
// JSON codec
// ---------------------------------------------------------------------

TEST(IntensitySeries, ExplicitJsonRoundTripsBitExactly)
{
    const auto original =
        IntensitySeries::solarDay(gramsPerKilowattHour(583.0), 0.25);
    // dump -> parse -> rebuild: %.17g doubles survive bit-exactly.
    const auto reparsed = intensitySeriesFromJson(
        config::JsonValue::parse(explicitJson(original).dump()));
    ASSERT_EQ(reparsed.size(), original.size());
    EXPECT_EQ(reparsed.stepHours(), original.stepHours());
    EXPECT_EQ(reparsed.name(), original.name());
    for (std::size_t s = 0; s < original.size(); ++s)
        EXPECT_EQ(reparsed.gramsAt(s), original.gramsAt(s)) << s;
}

TEST(IntensitySeries, GeneratedJsonMatchesBuilders)
{
    const auto from_json =
        intensitySeriesFromJson(config::JsonValue::parse(R"({
            "name": "tw", "profile": "solar", "region": "Taiwan",
            "share": 0.25, "days": 365,
            "seasonal_amplitude": 0.15})"));
    const auto built = IntensitySeries::seasonal(
        IntensitySeries::solarDay(
            regionIntensity(regionByName("Taiwan")), 0.25),
        365, 0.15, 0.0);
    ASSERT_EQ(from_json.size(), built.size());
    EXPECT_EQ(from_json.name(), "tw");
    for (std::size_t s = 0; s < built.size(); ++s)
        EXPECT_EQ(from_json.gramsAt(s), built.gramsAt(s)) << s;
}

TEST(IntensitySeries, ShippedSolarYearParses)
{
    const IntensitySeries series =
        intensitySeriesFromJson(config::loadJsonFile(
            ACT_EXAMPLES_DIR
            "/configs/intensity_series_tw_solar_year.json"));
    EXPECT_EQ(series.name(), "tw-solar-year");
    EXPECT_EQ(series.size(), 365u * 24u);
    EXPECT_DOUBLE_EQ(series.stepHours(), 1.0);
}

TEST(IntensitySeries, FlatGeneratedFormUsesBaseIntensity)
{
    const auto series =
        intensitySeriesFromJson(config::JsonValue::parse(
            R"({"profile": "flat", "base_g_per_kwh": 123.0})"));
    EXPECT_EQ(series.size(), 24u);
    EXPECT_DOUBLE_EQ(series.gramsAt(5), 123.0);
}

// ---------------------------------------------------------------------
// Malformed input
// ---------------------------------------------------------------------

class IntensitySeriesDeathTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    }

    static void
    parseText(const std::string &text)
    {
        intensitySeriesFromJson(config::JsonValue::parse(text));
    }
};

TEST_F(IntensitySeriesDeathTest, EmptySeriesIsFatal)
{
    EXPECT_EXIT(parseText(R"({"samples_g_per_kwh": []})"),
                ::testing::ExitedWithCode(1), "at least one sample");
}

TEST_F(IntensitySeriesDeathTest, NegativeSampleIsFatal)
{
    EXPECT_EXIT(parseText(R"({"samples_g_per_kwh": [300, -1]})"),
                ::testing::ExitedWithCode(1), "sample 1");
}

TEST_F(IntensitySeriesDeathTest, NonPositiveStepIsFatal)
{
    EXPECT_EXIT(
        parseText(R"({"samples_g_per_kwh": [300], "step_hours": 0})"),
        ::testing::ExitedWithCode(1), "step must be positive");
}

/** The message intensitySeriesFromJson() throws for @p text. */
std::string
seriesError(const std::string &text)
{
    try {
        intensitySeriesFromJson(config::JsonValue::parse(text));
    } catch (const config::JsonTypeError &error) {
        return error.what();
    }
    ADD_FAILURE() << "expected JsonTypeError for " << text;
    return "";
}

TEST(IntensitySeriesJson, MissingProfileAndSamplesThrows)
{
    EXPECT_EQ(seriesError(R"({"name": "empty"})"),
              "an intensity series needs either 'samples_g_per_kwh' or a "
              "generated 'profile'");
}

TEST(IntensitySeriesJson, UnknownProfileThrows)
{
    EXPECT_EQ(seriesError(R"({"profile": "tidal", "base_g_per_kwh": 300})"),
              "'profile' must be one of 'flat', 'solar', 'wind' "
              "(got \"tidal\")");
}

TEST(IntensitySeriesJson, GeneratedFormNeedsABaseGrid)
{
    EXPECT_EQ(seriesError(R"({"profile": "solar", "share": 0.2})"),
              "a generated intensity series needs a base grid: 'region' or "
              "'base_g_per_kwh'");
}

TEST(IntensitySeriesJson, DaysIsACountUpToACentury)
{
    // 1.5 used to be rejected by hand, 1e12 to abort on bad_alloc and
    // 1e300 to overflow its size_t cast.
    for (const char *days : {"1.5", "0", "36526", "1e+12", "1e+300"}) {
        EXPECT_EQ(seriesError(std::string(R"({"profile": "flat",
                                              "base_g_per_kwh": 300,
                                              "days": )") +
                              days + "}"),
                  std::string("'days' must be an integer in [1, 36525] "
                              "(got ") +
                      days + ")");
    }
}

TEST_F(IntensitySeriesDeathTest, SeasonalAmplitudeOutOfRangeIsFatal)
{
    EXPECT_EXIT(
        IntensitySeries::seasonal(
            IntensitySeries::flat(gramsPerKilowattHour(300.0)), 10,
            1.0),
        ::testing::ExitedWithCode(1), "amplitude");
}

TEST_F(IntensitySeriesDeathTest, OutOfRangeShareIsFatal)
{
    EXPECT_EXIT(IntensitySeries::solarDay(gramsPerKilowattHour(583.0),
                                          0.6),
                ::testing::ExitedWithCode(1), "renewable share");
    EXPECT_EXIT(IntensitySeries::windDay(gramsPerKilowattHour(583.0),
                                         -0.1),
                ::testing::ExitedWithCode(1), "renewable share");
}

} // namespace
} // namespace act::data

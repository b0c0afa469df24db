/**
 * @file
 * Time-series grid carbon intensity. ACT's Eq. 2 treats CI_use as a
 * constant; Appendix A.1 notes real grids fluctuate. An
 * IntensitySeries models that fluctuation at arbitrary length and
 * resolution -- one day at hourly steps, a seasonal x diurnal year of
 * 8760 samples, or measured traces loaded from JSON -- and is what the
 * carbon-aware scheduling policies (core/scheduling.h) and the fleet
 * replayer (fleet/replay.h) consume.
 *
 * Series are cyclic: at(i) wraps modulo size(), so a one-day series
 * also serves as an infinite repeating day.
 *
 * JSON forms (config parser, '//' comments and trailing commas OK):
 *
 *   { "name": "trace", "step_hours": 1,
 *     "samples_g_per_kwh": [583, 570, ...] }          // explicit
 *
 *   { "name": "us-solar", "profile": "solar",          // generated
 *     "region": "United States",                       //  (or
 *     "share": 0.3,                                    //  "base_g_per_kwh")
 *     "days": 365,
 *     "seasonal_amplitude": 0.15,
 *     "seasonal_peak_day": 0 }
 */

#ifndef ACT_DATA_INTENSITY_SERIES_H
#define ACT_DATA_INTENSITY_SERIES_H

#include <cstddef>
#include <string>
#include <vector>

#include "config/json.h"
#include "util/units.h"

namespace act::data {

/** A cyclic carbon-intensity time series at a fixed sample step. */
class IntensitySeries
{
  public:
    /** Wrap explicit samples (g CO2/kWh); fatal on empty, negative,
     *  or non-finite samples, or a non-positive step. */
    static IntensitySeries fromSamples(std::vector<double> grams_per_kwh,
                                       double step_hours = 1.0,
                                       std::string name = "");

    /** A flat series at a constant intensity. */
    static IntensitySeries flat(util::CarbonIntensity average,
                                std::size_t samples = 24,
                                double step_hours = 1.0);

    /**
     * One 24-hour day of a grid whose renewable share is solar:
     * intensity dips towards the solar window (10:00-16:00) and rises
     * at night. The daily *average* equals blend(base, solar_share).
     * @p solar_share is the daily-average solar fraction in [0, 0.4]
     * (a day-only source cannot exceed ~0.44 without storage).
     */
    static IntensitySeries solarDay(util::CarbonIntensity base,
                                    double solar_share);

    /** One 24-hour day of a wind-heavy grid: milder, night-leaning
     *  dips; daily average equals blend(base, wind_share). */
    static IntensitySeries windDay(util::CarbonIntensity base,
                                   double wind_share);

    /**
     * Seasonal composition: tile @p day over @p days days, scaling day
     * d's samples by 1 + amplitude * cos(2*pi * (d - peak_day) / days)
     * -- @p peak_day is the dirtiest day of the cycle (day 0 = the
     * series start; for a solar grid, northern mid-winter). The cycle
     * length is the series itself, so the result stays seamlessly
     * cyclic. Fatal unless 0 <= amplitude < 1.
     */
    static IntensitySeries seasonal(const IntensitySeries &day,
                                    std::size_t days, double amplitude,
                                    double peak_day = 0.0);

    /** Intensity during sample [i, i+1); i taken modulo size(). */
    util::CarbonIntensity
    at(std::size_t sample) const
    {
        return util::gramsPerKilowattHour(
            grams_per_kwh_[sample % grams_per_kwh_.size()]);
    }

    /** Raw magnitude of at(), for hot loops. */
    double
    gramsAt(std::size_t sample) const
    {
        return grams_per_kwh_[sample % grams_per_kwh_.size()];
    }

    std::size_t size() const { return grams_per_kwh_.size(); }

    /** Sample step, in hours. */
    double stepHours() const { return step_hours_; }

    util::Duration step() const { return util::hours(step_hours_); }

    /** Total span of one cycle. */
    util::Duration
    duration() const
    {
        return util::hours(durationHours());
    }

    double
    durationHours() const
    {
        return static_cast<double>(grams_per_kwh_.size()) * step_hours_;
    }

    const std::string &name() const { return name_; }

    /** Raw samples (g CO2/kWh), one cycle. */
    const std::vector<double> &samples() const { return grams_per_kwh_; }

    /** Sample indices sorted from greenest to dirtiest. */
    std::vector<std::size_t> samplesByIntensity() const;

  private:
    IntensitySeries() = default;

    std::vector<double> grams_per_kwh_;
    double step_hours_ = 1.0;
    std::string name_;
};

/**
 * Parse a series from either JSON form (see the file comment). The
 * generated form takes "profile" of "flat", "solar", or "wind", a base
 * grid as "region" (Table 6 name) or "base_g_per_kwh", a renewable
 * "share" for solar/wind, and optional "days" / "seasonal_amplitude" /
 * "seasonal_peak_day" (days a count in [1, 36525]) to tile the day
 * into a seasonal series. Throws config::JsonTypeError naming the field
 * on malformed input; the checks fromSamples(), solarDay(), windDay()
 * and seasonal() make for every caller stay fatal.
 */
IntensitySeries intensitySeriesFromJson(const config::JsonValue &value);

} // namespace act::data

#endif // ACT_DATA_INTENSITY_SERIES_H

#include "data/intensity_series.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "data/carbon_intensity_db.h"
#include "util/logging.h"

namespace act::data {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kMaxHourlyShare = 0.95;
constexpr std::size_t kHoursPerDay = 24;

/**
 * Solve for the scale k such that the mean over samples of
 * min(kMaxHourlyShare, k * weight[i]) equals @p target_share, then
 * return the per-sample shares. Monotone in k, so bisection suffices.
 */
std::vector<double>
solveShares(const std::vector<double> &weights, double target_share)
{
    std::vector<double> shares(weights.size(), 0.0);
    if (target_share <= 0.0)
        return shares;

    const auto mean_at = [&weights](double k) {
        double sum = 0.0;
        for (double w : weights)
            sum += std::min(kMaxHourlyShare, k * w);
        return sum / static_cast<double>(weights.size());
    };
    if (mean_at(1e6) < target_share) {
        util::fatal("renewable share ", target_share,
                    " is unreachable with this profile shape");
    }

    double lo = 0.0;
    double hi = 1e6;
    for (int i = 0; i < 80; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (mean_at(mid) < target_share)
            lo = mid;
        else
            hi = mid;
    }
    for (std::size_t i = 0; i < weights.size(); ++i)
        shares[i] = std::min(kMaxHourlyShare, hi * weights[i]);
    return shares;
}

void
checkShare(double share, double max_share)
{
    if (share < 0.0 || share > max_share) {
        util::fatal("renewable share must be in [0, ", max_share,
                    "], got ", share);
    }
}

std::vector<double>
blendDay(const std::vector<double> &weights, double target_share,
         double base, double renewable_ci)
{
    const std::vector<double> shares = solveShares(weights, target_share);
    std::vector<double> grams(weights.size());
    for (std::size_t i = 0; i < weights.size(); ++i)
        grams[i] = (1.0 - shares[i]) * base + shares[i] * renewable_ci;
    return grams;
}

} // namespace

IntensitySeries
IntensitySeries::fromSamples(std::vector<double> grams_per_kwh,
                             double step_hours, std::string name)
{
    if (grams_per_kwh.empty())
        util::fatal("intensity series needs at least one sample");
    for (std::size_t i = 0; i < grams_per_kwh.size(); ++i) {
        if (!std::isfinite(grams_per_kwh[i]) || grams_per_kwh[i] < 0.0) {
            util::fatal("intensity series sample ", i,
                        " must be a non-negative finite g CO2/kWh, got ",
                        grams_per_kwh[i]);
        }
    }
    if (!(step_hours > 0.0) || !std::isfinite(step_hours))
        util::fatal("intensity series step must be positive hours, got ",
                    step_hours);
    IntensitySeries series;
    series.grams_per_kwh_ = std::move(grams_per_kwh);
    series.step_hours_ = step_hours;
    series.name_ = std::move(name);
    return series;
}

IntensitySeries
IntensitySeries::flat(util::CarbonIntensity average, std::size_t samples,
                      double step_hours)
{
    if (samples == 0)
        util::fatal("intensity series needs at least one sample");
    return fromSamples(std::vector<double>(samples, average.value()),
                       step_hours, "flat");
}

IntensitySeries
IntensitySeries::solarDay(util::CarbonIntensity base, double solar_share)
{
    // A day-only source cannot exceed ~0.44 daily-average share
    // without storage; cap at 0.4.
    checkShare(solar_share, 0.4);
    std::vector<double> weights(kHoursPerDay);
    for (std::size_t h = 0; h < kHoursPerDay; ++h) {
        const double t = static_cast<double>(h);
        weights[h] = (t >= 6.0 && t <= 18.0)
                         ? std::sin(kPi * (t - 6.0) / 12.0)
                         : 0.0;
    }
    return fromSamples(
        blendDay(weights, solar_share, base.value(),
                 sourceIntensity(EnergySource::Solar).value()),
        1.0, "solar");
}

IntensitySeries
IntensitySeries::windDay(util::CarbonIntensity base, double wind_share)
{
    checkShare(wind_share, 0.8);
    std::vector<double> weights(kHoursPerDay);
    for (std::size_t h = 0; h < kHoursPerDay; ++h) {
        // Wind availability often peaks overnight; keep it mild.
        weights[h] = 1.0 + 0.35 * std::cos(2.0 * kPi *
                                           (static_cast<double>(h) -
                                            3.0) /
                                           24.0);
    }
    return fromSamples(
        blendDay(weights, wind_share, base.value(),
                 sourceIntensity(EnergySource::Wind).value()),
        1.0, "wind");
}

IntensitySeries
IntensitySeries::seasonal(const IntensitySeries &day, std::size_t days,
                          double amplitude, double peak_day)
{
    if (days == 0)
        util::fatal("seasonal composition needs at least one day");
    if (!(amplitude >= 0.0 && amplitude < 1.0)) {
        util::fatal("seasonal amplitude must be in [0, 1), got ",
                    amplitude);
    }
    std::vector<double> grams;
    grams.reserve(day.size() * days);
    for (std::size_t d = 0; d < days; ++d) {
        const double factor =
            1.0 + amplitude * std::cos(2.0 * kPi *
                                       (static_cast<double>(d) -
                                        peak_day) /
                                       static_cast<double>(days));
        for (const double g : day.samples())
            grams.push_back(g * factor);
    }
    return fromSamples(std::move(grams), day.stepHours(),
                       day.name().empty() ? "seasonal"
                                          : day.name() + "+seasonal");
}

std::vector<std::size_t>
IntensitySeries::samplesByIntensity() const
{
    std::vector<std::size_t> order(grams_per_kwh_.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [this](std::size_t a, std::size_t b) {
                  return grams_per_kwh_[a] < grams_per_kwh_[b];
              });
    return order;
}

namespace {

enum class Profile
{
    Flat,
    Solar,
    Wind,
};

constexpr config::Choice<Profile> kProfiles[] = {
    {"flat", Profile::Flat},
    {"solar", Profile::Solar},
    {"wind", Profile::Wind},
};

/** The longest generated series: 100 years of days. */
constexpr std::uint64_t kMaxDays = 36525;

} // namespace

IntensitySeries
intensitySeriesFromJson(const config::JsonValue &value)
{
    if (!value.isObject())
        throw config::JsonTypeError(
            "an intensity series must be a JSON object");
    const std::string name = value.stringOr("name", "");

    if (value.contains("samples_g_per_kwh")) {
        return IntensitySeries::fromSamples(
            config::numbers(value, "samples_g_per_kwh"),
            config::number(value, "step_hours", 1.0), name);
    }

    if (!value.contains("profile")) {
        throw config::JsonTypeError(
            "an intensity series needs either 'samples_g_per_kwh' or a "
            "generated 'profile'");
    }
    util::CarbonIntensity base;
    if (value.contains("region")) {
        base = regionIntensity(regionByName(value.at("region").asString()));
    } else if (value.contains("base_g_per_kwh")) {
        base = util::gramsPerKilowattHour(
            config::number(value, "base_g_per_kwh"));
    } else {
        throw config::JsonTypeError(
            "a generated intensity series needs a base grid: 'region' or "
            "'base_g_per_kwh'");
    }

    IntensitySeries day = IntensitySeries::flat(base);
    switch (config::choice(value, "profile", kProfiles)) {
      case Profile::Flat:
        break;
      case Profile::Solar:
        day = IntensitySeries::solarDay(
            base, config::number(value, "share", 0.25));
        break;
      case Profile::Wind:
        day = IntensitySeries::windDay(
            base, config::number(value, "share", 0.25));
        break;
    }

    const std::uint64_t days =
        config::count(value, "days", 1, {1, kMaxDays});
    IntensitySeries series =
        days > 1 || value.contains("seasonal_amplitude")
            ? IntensitySeries::seasonal(
                  day, days, config::number(value, "seasonal_amplitude", 0.0),
                  config::number(value, "seasonal_peak_day", 0.0))
            : std::move(day);
    if (!name.empty()) {
        return IntensitySeries::fromSamples(
            std::vector<double>(series.samples()), series.stepHours(),
            name);
    }
    return series;
}

} // namespace act::data

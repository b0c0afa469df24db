#include "core/scheduling.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace act::core {

namespace {

void
checkLoad(const DailyLoad &load)
{
    const double baseline_w = util::asWatts(load.baseline);
    if (!std::isfinite(baseline_w))
        util::fatal("baseline power must be finite, got ", baseline_w,
                    " W");
    if (baseline_w < 0.0)
        util::fatal("baseline power must be non-negative");
    const double energy_kwh =
        util::asKilowattHours(load.deferrable_energy);
    if (!std::isfinite(energy_kwh))
        util::fatal("deferrable energy must be finite, got ", energy_kwh,
                    " kWh");
    if (energy_kwh < 0.0)
        util::fatal("deferrable energy must be non-negative");
    const double capacity_w = util::asWatts(load.deferrable_capacity);
    if (!std::isfinite(capacity_w) || capacity_w < 0.0) {
        util::fatal("deferrable capacity must be a non-negative finite "
                    "power, got ", capacity_w, " W");
    }
    if (capacity_w == 0.0 && energy_kwh > 0.0) {
        util::fatal("deferrable capacity is zero but ", energy_kwh,
                    " kWh of deferrable energy must still be placed");
    }
    // Per-day check; scales 1:1 with the series span, so it also
    // bounds the tiled total against the tiled capacity.
    const util::Energy daily_capacity =
        load.deferrable_capacity * util::hours(24.0);
    if (load.deferrable_energy > daily_capacity) {
        util::fatal("deferrable energy (",
                    util::asKilowattHours(load.deferrable_energy),
                    " kWh) exceeds the daily deferrable capacity (",
                    util::asKilowattHours(daily_capacity), " kWh)");
    }
}

/** The per-day load tiled over the whole series span. */
util::Energy
tiledEnergy(const DailyLoad &load, const data::IntensitySeries &series)
{
    return load.deferrable_energy * (series.durationHours() / 24.0);
}

/** Greedily fill @p order (greenest first), each sample capped at
 *  capacity x step; identical arithmetic to the original 24-hour
 *  greedy so the legacy wrappers stay bit-identical. */
void
placeGreedy(std::vector<util::Energy> &placement, util::Energy remaining,
            util::Energy sample_capacity,
            const std::vector<std::size_t> &order)
{
    for (std::size_t sample : order) {
        if (util::asKilowattHours(remaining) <= 0.0)
            break;
        const util::Energy placed =
            std::min(remaining, sample_capacity);
        placement[sample] = placed;
        remaining -= placed;
    }
}

/** Sample indices of [begin, end) sorted greenest-first with a full
 *  (value, index) tie-break -- deterministic independent of the sort
 *  implementation. */
std::vector<std::size_t>
windowByIntensity(const data::IntensitySeries &series, std::size_t begin,
                  std::size_t end)
{
    std::vector<std::size_t> order(end - begin);
    std::iota(order.begin(), order.end(), begin);
    std::sort(order.begin(), order.end(),
              [&series](std::size_t a, std::size_t b) {
                  if (series.gramsAt(a) != series.gramsAt(b))
                      return series.gramsAt(a) < series.gramsAt(b);
                  return a < b;
              });
    return order;
}

void
placeDeadlineBounded(std::vector<util::Energy> &placement,
                     const DailyLoad &load,
                     const data::IntensitySeries &series,
                     std::size_t window)
{
    if (window == 0) {
        util::fatal("deadline-bounded scheduling needs a positive "
                    "deadline window (PolicySpec::deadline_samples)");
    }
    const std::size_t n = series.size();
    const util::Energy total = tiledEnergy(load, series);
    const util::Energy sample_capacity =
        load.deferrable_capacity * series.step();
    for (std::size_t begin = 0; begin < n; begin += window) {
        const std::size_t end = std::min(n, begin + window);
        // Work arriving in this window must finish inside it; each
        // window owes its length-proportional share of the total.
        util::Energy remaining =
            total * (static_cast<double>(end - begin) /
                     static_cast<double>(n));
        const auto order = windowByIntensity(series, begin, end);
        for (std::size_t sample : order) {
            if (util::asKilowattHours(remaining) <= 0.0)
                break;
            const util::Energy placed =
                std::min(remaining, sample_capacity);
            placement[sample] = placed;
            remaining -= placed;
        }
        // Rounding dust (the proportional share can exceed the window
        // capacity by an ulp): conserve energy in the dirtiest sample.
        if (util::asKilowattHours(remaining) > 0.0)
            placement[order.back()] += remaining;
    }
}

SeriesSchedule
finalize(const DailyLoad &load, const data::IntensitySeries &series,
         SeriesSchedule result)
{
    const util::Energy per_sample = load.baseline * series.step();
    result.baseline_footprint = util::Mass{};
    for (std::size_t s = 0; s < series.size(); ++s)
        result.baseline_footprint += series.at(s) * per_sample;
    result.deferrable_footprint = util::Mass{};
    for (std::size_t s = 0; s < series.size(); ++s)
        result.deferrable_footprint += series.at(s) * result.placement[s];
    return result;
}

} // namespace

PolicySpec
policyByName(std::string_view name)
{
    if (name == "uniform")
        return {DeferralPolicy::Uniform, 0};
    if (name == "greedy")
        return {DeferralPolicy::GreedyGreenest, 0};
    if (name == "deadline")
        return {DeferralPolicy::DeadlineBounded, 6};
    if (name == "migrate")
        return {DeferralPolicy::GreenestRegion, 0};
    util::fatal("unknown deferral policy '", name,
                "' (expected 'uniform', 'greedy', 'deadline', or "
                "'migrate')");
}

SeriesSchedule
schedule(const DailyLoad &load, const data::IntensitySeries &series,
         const PolicySpec &policy)
{
    checkLoad(load);
    const std::size_t n = series.size();
    SeriesSchedule result;
    result.placement.assign(n, util::Energy{});

    switch (policy.kind) {
    case DeferralPolicy::Uniform: {
        const util::Energy per_sample =
            tiledEnergy(load, series) / static_cast<double>(n);
        std::fill(result.placement.begin(), result.placement.end(),
                  per_sample);
        break;
    }
    case DeferralPolicy::GreedyGreenest:
        placeGreedy(result.placement, tiledEnergy(load, series),
                    load.deferrable_capacity * series.step(),
                    series.samplesByIntensity());
        break;
    case DeferralPolicy::DeadlineBounded:
        placeDeadlineBounded(result.placement, load, series,
                             policy.deadline_samples);
        break;
    case DeferralPolicy::GreenestRegion:
        util::fatal("the cross-region policy needs several regions; "
                    "fleet replay schedules it per job, not schedule()");
    }
    return finalize(load, series, result);
}

double
carbonAwareSaving(const DailyLoad &load,
                  const data::IntensitySeries &series)
{
    const util::Mass uniform =
        schedule(load, series, {DeferralPolicy::Uniform, 0})
            .deferrable_footprint;
    const util::Mass aware =
        schedule(load, series, {DeferralPolicy::GreedyGreenest, 0})
            .deferrable_footprint;
    if (util::asGrams(aware) <= 0.0)
        return 1.0;
    return util::asGrams(uniform) / util::asGrams(aware);
}

} // namespace act::core

/**
 * @file
 * Carbon-aware load scheduling over carbon-intensity time series
 * (an operational-side extension of Eq. 2, following the
 * carbon-aware-computing direction the paper cites [66]).
 *
 * A daily workload consists of an inflexible baseline draw plus a
 * deferrable batch component that can run in any hours. Scheduling
 * the batch into the greenest hours lowers OPCF without any hardware
 * change -- and shifts the embodied/operational balance that the
 * Section 6 provisioning decisions depend on.
 *
 * Policies are pluggable (DeferralPolicy): uniform spread,
 * greedy-greenest and deadline-bounded windows over one series.
 * Cross-region migration is scheduled per job by fleet replay
 * (fleet/replay.h).
 */

#ifndef ACT_CORE_SCHEDULING_H
#define ACT_CORE_SCHEDULING_H

#include <string_view>
#include <vector>

#include "data/intensity_series.h"
#include "util/units.h"

namespace act::core {

/** A daily load description. */
struct DailyLoad
{
    /** Power drawn in every hour regardless of scheduling. */
    util::Power baseline{};
    /** Total deferrable energy that must run sometime each day. */
    util::Energy deferrable_energy{};
    /** Peak additional power the platform can dedicate to deferrable
     *  work in one hour (bounds how much can compress into the
     *  greenest hours). */
    util::Power deferrable_capacity{};
};

/** How deferrable energy is placed against the intensity series. */
enum class DeferralPolicy
{
    /** Spread evenly over all samples (carbon-oblivious). */
    Uniform,
    /** Fill the greenest samples first, anywhere in the series. */
    GreedyGreenest,
    /** Greedy, but only within consecutive windows of
     *  PolicySpec::deadline_samples samples -- work must finish by its
     *  window's end. window=1 degenerates to Uniform, window=size()
     *  to GreedyGreenest. */
    DeadlineBounded,
    /** Greedy over every (region, sample) slot; only meaningful to
     *  fleet replay's per-job migration (fleet/replay.h). */
    GreenestRegion,
};

/** A policy plus its parameters. */
struct PolicySpec
{
    DeferralPolicy kind = DeferralPolicy::Uniform;
    /** Window length for DeadlineBounded, in samples. */
    std::size_t deadline_samples = 0;
};

/** Parse "uniform" / "greedy" / "deadline" / "migrate"; fatal on
 *  anything else. "deadline" defaults to a 6-sample window. */
PolicySpec policyByName(std::string_view name);

/** Result of scheduling a load against one intensity series. The
 *  per-day load is tiled over the series span (durationHours()/24
 *  days' worth of energy). */
struct SeriesSchedule
{
    /** Deferrable energy placed in each sample. */
    std::vector<util::Energy> placement;
    util::Mass baseline_footprint{};
    util::Mass deferrable_footprint{};

    util::Mass total() const
    {
        return baseline_footprint + deferrable_footprint;
    }
};

/**
 * Schedule the load against @p series under @p policy. Fatal on
 * malformed loads (negative / non-finite values, zero capacity with
 * nonzero energy, energy exceeding daily capacity) and on
 * DeferralPolicy::GreenestRegion, which needs several regions.
 */
SeriesSchedule schedule(const DailyLoad &load,
                        const data::IntensitySeries &series,
                        const PolicySpec &policy);

/** OPCF saving factor of greedy-greenest over uniform scheduling of
 *  the deferrable tier; 1 when the greedy footprint is zero. */
double carbonAwareSaving(const DailyLoad &load,
                         const data::IntensitySeries &series);

} // namespace act::core

#endif // ACT_CORE_SCHEDULING_H

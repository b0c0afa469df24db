/**
 * @file
 * Data-center server carbon accounting -- the CDP use case of Table 2
 * ("balance CO2 and performance, e.g. sustainable data center").
 *
 * A server platform couples an embodied footprint (evaluated over its
 * bill of materials with the Eq. 3-8 models) with a linear
 * utilization-to-power model; the data center adds PUE and a grid.
 * On top of that the module provides per-job carbon attribution and a
 * server-refresh analysis via the shared replacement-cycle model.
 */

#ifndef ACT_SERVER_DATACENTER_H
#define ACT_SERVER_DATACENTER_H

#include <string>
#include <vector>

#include "core/embodied.h"
#include "core/footprint.h"
#include "core/replacement.h"

namespace act::server {

/** One server platform. */
struct ServerPlatform
{
    std::string name;
    /** Embodied footprint of the server's ICs (Eq. 3). */
    util::Mass embodied{};
    /** Wall power when idle and at full load. */
    util::Power idle_power{};
    util::Power peak_power{};
    /** Relative throughput at full load (1.0 = reference). */
    double performance = 1.0;
};

/** Data-center environment. */
struct DatacenterParams
{
    core::OperationalParams grid{};
    /** Power usage effectiveness; folds into Eq. 2 as the
     *  utilization-effectiveness multiplier. */
    double pue = 1.2;
    /** Fleet-average server utilization. */
    double utilization = 0.5;
    /** Server service life (the paper cites 3-5 years). */
    util::Duration lifetime = util::years(4.0);
};

/**
 * A Dell R740-class reference server: embodied footprint from the
 * device database BOM under the given fab conditions, with a
 * typical dual-socket power envelope.
 */
ServerPlatform dellR740Platform(const core::FabParams &fab);

/** Wall power at a fleet utilization (linear idle..peak model). */
util::Power powerAtUtilization(const ServerPlatform &platform,
                               double utilization);

/** Eq. 1 over one year of service (embodied amortized by LT). */
core::CarbonFootprint annualFootprint(const ServerPlatform &platform,
                                      const DatacenterParams &dc);

/**
 * Carbon attributed to a job occupying the whole server for
 * @p duration at full load: operational energy plus the embodied
 * share of Eq. 1.
 */
core::CarbonFootprint jobFootprint(const ServerPlatform &platform,
                                   const DatacenterParams &dc,
                                   util::Duration duration);

/**
 * Server-refresh analysis: sweep replacement intervals under an
 * annual perf/W improvement for new server generations. Server
 * efficiency has improved far more slowly post-Dennard than mobile
 * (the paper's [55] reports ~5x compute efficiency over a decade,
 * i.e. ~1.17x/year at the start of that period and flattening since);
 * the default models a conservative 1.12x/year.
 */
std::vector<core::ReplacementPoint>
refreshSweep(const ServerPlatform &platform, const DatacenterParams &dc,
             double annual_efficiency_improvement = 1.12,
             util::Duration horizon = util::years(12.0));

} // namespace act::server

#endif // ACT_SERVER_DATACENTER_H

#include "core/operational.h"

#include "util/logging.h"
#include "util/metrics.h"

namespace act::core {

namespace {

util::Counter &g_eq2_evals =
    util::MetricsRegistry::instance().counter("core.eq2.evals");

} // namespace

OperationalParams
OperationalParams::withIntensity(util::CarbonIntensity ci)
{
    OperationalParams params;
    params.ci_use = ci;
    return params;
}

OperationalParams
OperationalParams::forRegion(data::Region region)
{
    return withIntensity(data::regionIntensity(region));
}

OperationalParams
OperationalParams::forSource(data::EnergySource source)
{
    return withIntensity(data::sourceIntensity(source));
}

util::Mass
operationalFootprint(util::Energy energy, const OperationalParams &params)
{
    g_eq2_evals.add();
    if (params.utilization_effectiveness < 1.0) {
        util::fatal("utilization effectiveness must be >= 1, got ",
                    params.utilization_effectiveness);
    }
    return params.ci_use * (energy * params.utilization_effectiveness);
}

} // namespace act::core

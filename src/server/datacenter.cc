#include "server/datacenter.h"

#include "data/device_db.h"
#include "util/logging.h"

namespace act::server {

namespace {

void
checkDatacenter(const DatacenterParams &dc)
{
    if (dc.pue < 1.0)
        util::fatal("PUE must be >= 1, got ", dc.pue);
    if (!(dc.utilization >= 0.0 && dc.utilization <= 1.0))
        util::fatal("utilization must be in [0, 1], got ",
                    dc.utilization);
    if (util::asYears(dc.lifetime) <= 0.0)
        util::fatal("server lifetime must be positive");
}

core::OperationalParams
gridWithPue(const DatacenterParams &dc)
{
    core::OperationalParams use = dc.grid;
    use.utilization_effectiveness *= dc.pue;
    return use;
}

} // namespace

ServerPlatform
dellR740Platform(const core::FabParams &fab)
{
    const core::EmbodiedModel model(fab);
    const auto device =
        data::DeviceDatabase::instance().byNameOrDie("Dell R740");

    ServerPlatform platform;
    platform.name = device.name;
    platform.embodied = model.evaluate(device).total();
    platform.idle_power = util::watts(120.0);
    platform.peak_power = util::watts(500.0);
    platform.performance = 1.0;
    return platform;
}

util::Power
powerAtUtilization(const ServerPlatform &platform, double utilization)
{
    if (!(utilization >= 0.0 && utilization <= 1.0))
        util::fatal("utilization must be in [0, 1], got ", utilization);
    return platform.idle_power +
           (platform.peak_power - platform.idle_power) * utilization;
}

core::CarbonFootprint
annualFootprint(const ServerPlatform &platform,
                const DatacenterParams &dc)
{
    checkDatacenter(dc);
    const util::Energy annual_energy =
        powerAtUtilization(platform, dc.utilization) * util::years(1.0);
    return core::combineFootprint(
        core::operationalFootprint(annual_energy, gridWithPue(dc)),
        platform.embodied, util::years(1.0), dc.lifetime);
}

core::CarbonFootprint
jobFootprint(const ServerPlatform &platform, const DatacenterParams &dc,
             util::Duration duration)
{
    checkDatacenter(dc);
    const util::Energy job_energy =
        powerAtUtilization(platform, 1.0) * duration;
    return core::combineFootprint(
        core::operationalFootprint(job_energy, gridWithPue(dc)),
        platform.embodied, duration, dc.lifetime);
}

std::vector<core::ReplacementPoint>
refreshSweep(const ServerPlatform &platform, const DatacenterParams &dc,
             double annual_efficiency_improvement,
             util::Duration horizon)
{
    checkDatacenter(dc);
    core::ReplacementParams params;
    params.embodied_per_unit = platform.embodied;
    params.first_year_energy =
        powerAtUtilization(platform, dc.utilization) * util::years(1.0);
    params.use = gridWithPue(dc);
    params.annual_efficiency_improvement =
        annual_efficiency_improvement;
    params.horizon = horizon;
    return core::replacementSweep(
        params, static_cast<int>(util::asYears(horizon)));
}

} // namespace act::server

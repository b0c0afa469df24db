#include "mobile/platform.h"

#include "util/trace.h"

namespace act::mobile {

using util::Duration;
using util::Energy;
using util::seconds;

PlatformEmbodied
platformEmbodied(const data::SocRecord &soc, const core::FabParams &fab)
{
    PlatformEmbodied embodied;
    embodied.soc = core::logicEmbodied(soc.die_area, soc.node_nm, fab);
    embodied.dram =
        core::storageEmbodied(soc.dram_capacity, soc.dram_technology);
    // Two discrete packages: the SoC and its (often stacked) DRAM.
    embodied.packaging = core::packagingEmbodied(2);
    return embodied;
}

Duration
referenceDelay(const data::SocRecord &soc)
{
    return seconds(kReferenceScoreSeconds / soc.aggregateScore());
}

Energy
referenceEnergy(const data::SocRecord &soc)
{
    return soc.tdp * referenceDelay(soc);
}

core::DesignPoint
designPoint(const data::SocRecord &soc, const core::FabParams &fab)
{
    core::DesignPoint point;
    point.name = soc.name;
    point.embodied = platformEmbodied(soc, fab).total();
    point.energy = referenceEnergy(soc);
    point.delay = referenceDelay(soc);
    point.area = soc.die_area;
    return point;
}

std::vector<core::DesignPoint>
mobileDesignSpace(const core::FabParams &fab)
{
    TRACE_SPAN("mobile.design_space", "mobileDesignSpace");
    // Database order.
    std::vector<core::DesignPoint> points;
    for (const data::SocRecord &soc :
         data::SocDatabase::instance().records())
        points.push_back(designPoint(soc, fab));
    return points;
}

} // namespace act::mobile

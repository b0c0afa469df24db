/**
 * @file
 * The operational half of the ACT model (Eq. 2):
 *
 *   OPCF = CI_use * Energy
 *
 * with the utilization-effectiveness factors of Fig. 5 (data-center PUE
 * or mobile charge/battery efficiency) applied as multipliers on the
 * energy drawn from the grid.
 */

#ifndef ACT_CORE_OPERATIONAL_H
#define ACT_CORE_OPERATIONAL_H

#include "data/carbon_intensity_db.h"
#include "util/units.h"

namespace act::core {

/** Use-phase parameters of Table 1 / Fig. 5. */
struct OperationalParams
{
    util::CarbonIntensity ci_use = data::defaultUseIntensity();
    /**
     * Utilization effectiveness: grid energy drawn per unit of energy
     * delivered to the hardware. Models data-center PUE (>= 1) or
     * mobile charger + battery efficiency losses (also >= 1 expressed
     * this way). 1.0 means ideal delivery.
     */
    double utilization_effectiveness = 1.0;

    static OperationalParams withIntensity(util::CarbonIntensity ci);
    static OperationalParams forRegion(data::Region region);
    static OperationalParams forSource(data::EnergySource source);
};

/** Eq. 2 over device-level energy consumption. */
util::Mass operationalFootprint(util::Energy energy,
                                const OperationalParams &params);

} // namespace act::core

#endif // ACT_CORE_OPERATIONAL_H

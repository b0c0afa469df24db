/**
 * @file
 * Operational carbon intensities from the paper's Appendix A.1:
 * per-energy-source intensities (Table 5) and per-region grid averages
 * (Table 6), plus the renewable blend used to model partially
 * renewable fabs and grids.
 */

#ifndef ACT_DATA_CARBON_INTENSITY_DB_H
#define ACT_DATA_CARBON_INTENSITY_DB_H

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.h"

namespace act::data {

/** Energy generation sources of Table 5. */
enum class EnergySource
{
    Coal,
    Gas,
    Biomass,
    Solar,
    Geothermal,
    Hydropower,
    Nuclear,
    Wind,
    /** An idealized zero-emission source, used for the paper's
     *  "carbon free" sweep endpoints in Fig. 10. */
    CarbonFree,
};

/** Geographic grid averages of Table 6. */
enum class Region
{
    World,
    India,
    Australia,
    Taiwan,
    Singapore,
    UnitedStates,
    Europe,
    Brazil,
    Iceland,
};

/** One Table 5 row. */
struct EnergySourceRecord
{
    EnergySource source;
    std::string name;
    util::CarbonIntensity intensity;
    /** Energy-payback time in months (Table 5, right column). */
    double payback_months;
};

/** One Table 6 row. */
struct RegionRecord
{
    Region region;
    std::string name;
    util::CarbonIntensity intensity;
    std::string dominant_source;
};

/** All Table 5 rows, in the paper's order. */
std::span<const EnergySourceRecord> energySourceTable();

/** All Table 6 rows, in the paper's order. */
std::span<const RegionRecord> regionTable();

/** Carbon intensity of a single source; fatal on unknown enum. */
util::CarbonIntensity sourceIntensity(EnergySource source);

/** Grid intensity of a region. */
util::CarbonIntensity regionIntensity(Region region);

/** Display names. */
std::string_view sourceName(EnergySource source);
std::string_view regionName(Region region);

/** Lookup by (case-insensitive) name; fatal on unknown names. */
Region regionByName(std::string_view name);

/**
 * Blend a base grid with a renewable share: the paper's default fab runs
 * on the Taiwan grid with 25% renewable (solar) energy procurement.
 */
util::CarbonIntensity renewableBlend(util::CarbonIntensity base_grid,
                                     double renewable_share,
                                     EnergySource renewable =
                                         EnergySource::Solar);

/**
 * The paper's default fab carbon intensity: Taiwan power grid blended
 * with 25% renewable procurement (Section 3.1, Fig. 6 solid line).
 */
util::CarbonIntensity defaultFabIntensity();

/**
 * The paper's default use-phase carbon intensity: the US grid average
 * used throughout Section 6 (300 g CO2/kWh per the paper's text; note
 * Table 6 lists the US average as 380 g CO2/kWh -- the case studies use
 * the rounded 300 figure, so both are exposed).
 */
util::CarbonIntensity defaultUseIntensity();

} // namespace act::data

#endif // ACT_DATA_CARBON_INTENSITY_DB_H

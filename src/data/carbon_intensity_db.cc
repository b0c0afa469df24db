#include "data/carbon_intensity_db.h"

#include <array>

#include "util/logging.h"
#include "util/strings.h"

namespace act::data {

using util::CarbonIntensity;
using util::gramsPerKilowattHour;

namespace {

// Table 5: carbon efficiency of various energy sources.
const std::array<EnergySourceRecord, 9> kEnergySources = {{
    {EnergySource::Coal, "coal", gramsPerKilowattHour(820.0), 2.0},
    {EnergySource::Gas, "gas", gramsPerKilowattHour(490.0), 1.0},
    {EnergySource::Biomass, "biomass", gramsPerKilowattHour(230.0), 12.0},
    {EnergySource::Solar, "solar", gramsPerKilowattHour(41.0), 36.0},
    {EnergySource::Geothermal, "geothermal", gramsPerKilowattHour(38.0),
     72.0},
    {EnergySource::Hydropower, "hydropower", gramsPerKilowattHour(24.0),
     24.0},
    {EnergySource::Nuclear, "nuclear", gramsPerKilowattHour(12.0), 2.0},
    {EnergySource::Wind, "wind", gramsPerKilowattHour(11.0), 12.0},
    {EnergySource::CarbonFree, "carbon-free", gramsPerKilowattHour(0.0),
     0.0},
}};

// Table 6: global carbon efficiency to produce energy.
const std::array<RegionRecord, 9> kRegions = {{
    {Region::World, "world", gramsPerKilowattHour(301.0), "-"},
    {Region::India, "india", gramsPerKilowattHour(725.0), "coal/gas"},
    {Region::Australia, "australia", gramsPerKilowattHour(597.0), "coal"},
    {Region::Taiwan, "taiwan", gramsPerKilowattHour(583.0), "coal/gas"},
    {Region::Singapore, "singapore", gramsPerKilowattHour(495.0), "gas"},
    {Region::UnitedStates, "united states", gramsPerKilowattHour(380.0),
     "coal/gas"},
    {Region::Europe, "europe", gramsPerKilowattHour(295.0), "-"},
    {Region::Brazil, "brazil", gramsPerKilowattHour(82.0),
     "wind/hydropower"},
    {Region::Iceland, "iceland", gramsPerKilowattHour(28.0), "hydropower"},
}};

const EnergySourceRecord &
findSource(EnergySource source)
{
    for (const auto &record : kEnergySources) {
        if (record.source == source)
            return record;
    }
    util::panic("unknown EnergySource enumerator");
}

const RegionRecord &
findRegion(Region region)
{
    for (const auto &record : kRegions) {
        if (record.region == region)
            return record;
    }
    util::panic("unknown Region enumerator");
}

} // namespace

std::span<const EnergySourceRecord>
energySourceTable()
{
    return kEnergySources;
}

std::span<const RegionRecord>
regionTable()
{
    return kRegions;
}

CarbonIntensity
sourceIntensity(EnergySource source)
{
    return findSource(source).intensity;
}

CarbonIntensity
regionIntensity(Region region)
{
    return findRegion(region).intensity;
}

std::string_view
sourceName(EnergySource source)
{
    return findSource(source).name;
}

std::string_view
regionName(Region region)
{
    return findRegion(region).name;
}

Region
regionByName(std::string_view name)
{
    const std::string lowered = util::toLower(name);
    for (const auto &record : kRegions) {
        if (record.name == lowered)
            return record.region;
    }
    util::fatal("unknown region '", std::string(name), "'");
}

CarbonIntensity
renewableBlend(CarbonIntensity base_grid, double renewable_share,
               EnergySource renewable)
{
    if (renewable_share < 0.0 || renewable_share > 1.0)
        util::fatal("renewable share must be in [0, 1], got ",
                    renewable_share);
    const double blended =
        (1.0 - renewable_share) * base_grid.value() +
        renewable_share * sourceIntensity(renewable).value();
    return gramsPerKilowattHour(blended);
}

CarbonIntensity
defaultFabIntensity()
{
    return renewableBlend(regionIntensity(Region::Taiwan), 0.25);
}

CarbonIntensity
defaultUseIntensity()
{
    // Section 6: "the average carbon intensity of the United States
    // (e.g., 300 g CO2 per kWh)".
    return gramsPerKilowattHour(300.0);
}

} // namespace act::data

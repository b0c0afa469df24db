#include "data/fab_db.h"

#include <array>
#include <cmath>
#include <memory>
#include <vector>

#include "util/interp.h"
#include "util/logging.h"
#include "util/strings.h"

namespace act::data {

using util::CarbonPerArea;
using util::EnergyPerArea;
using util::gramsPerCm2;
using util::kilowattHoursPerCm2;
using util::PiecewiseLinear;

namespace {

// Table 7: embodied carbon parameters, EPA and GPA, for application
// processor manufacturing (imec IEDM'20 device-level characterization).
const std::array<FabNodeRecord, 9> kFabNodes = {{
    {"28nm", 28.0, kilowattHoursPerCm2(0.90), gramsPerCm2(175.0),
     gramsPerCm2(100.0)},
    {"20nm", 20.0, kilowattHoursPerCm2(1.2), gramsPerCm2(190.0),
     gramsPerCm2(110.0)},
    {"14nm", 14.0, kilowattHoursPerCm2(1.2), gramsPerCm2(200.0),
     gramsPerCm2(125.0)},
    {"10nm", 10.0, kilowattHoursPerCm2(1.475), gramsPerCm2(240.0),
     gramsPerCm2(150.0)},
    {"7nm", 7.0, kilowattHoursPerCm2(1.52), gramsPerCm2(350.0),
     gramsPerCm2(200.0)},
    {"7nm-EUV", 7.0, kilowattHoursPerCm2(2.15), gramsPerCm2(350.0),
     gramsPerCm2(200.0)},
    {"7nm-EUV-DP", 7.0, kilowattHoursPerCm2(2.15), gramsPerCm2(350.0),
     gramsPerCm2(200.0)},
    {"5nm", 5.0, kilowattHoursPerCm2(2.75), gramsPerCm2(430.0),
     gramsPerCm2(225.0)},
    {"3nm", 3.0, kilowattHoursPerCm2(2.75), gramsPerCm2(470.0),
     gramsPerCm2(275.0)},
}};

// Table 8: embodied carbon of raw material procurement (LCA-derived).
constexpr double kMpaGramsPerCm2 = 500.0;

/**
 * Distinct-x anchors for interpolation. Where Table 7 lists several 7 nm
 * lithography variants, the non-EUV row is used for the continuous
 * scaling curve (the variants remain addressable by name).
 */
struct CurveAnchor
{
    double nm;
    double epa;
    double gpa95;
    double gpa99;
};

const std::array<CurveAnchor, 7> kCurveAnchors = {{
    {3.0, 2.75, 470.0, 275.0},
    {5.0, 2.75, 430.0, 225.0},
    {7.0, 1.52, 350.0, 200.0},
    {10.0, 1.475, 240.0, 150.0},
    {14.0, 1.2, 200.0, 125.0},
    {20.0, 1.2, 190.0, 110.0},
    {28.0, 0.90, 175.0, 100.0},
}};

std::vector<std::pair<double, double>>
anchorSeries(double CurveAnchor::*member)
{
    std::vector<std::pair<double, double>> points;
    points.reserve(kCurveAnchors.size());
    for (const auto &anchor : kCurveAnchors)
        points.emplace_back(anchor.nm, anchor.*member);
    return points;
}

const CurveAnchor &
nearestAnchor(double nm)
{
    const CurveAnchor *best = &kCurveAnchors.front();
    double best_distance = std::fabs(std::log(nm) - std::log(best->nm));
    for (const auto &anchor : kCurveAnchors) {
        const double distance =
            std::fabs(std::log(nm) - std::log(anchor.nm));
        if (distance < best_distance) {
            best_distance = distance;
            best = &anchor;
        }
    }
    return *best;
}

void
checkNodeRange(double nm)
{
    if (!(nm >= FabDatabase::kMinNode && nm <= FabDatabase::kMaxNode)) {
        util::fatal("process node ", nm, " nm outside the modeled range [",
                    FabDatabase::kMinNode, ", ", FabDatabase::kMaxNode,
                    "] nm");
    }
}

void
checkAbatement(double abatement)
{
    if (!(abatement >= 0.90 && abatement <= 1.0)) {
        util::fatal("gaseous abatement fraction ", abatement,
                    " outside the characterized range [0.90, 1.0]");
    }
}

} // namespace

struct FabDatabase::Curves
{
    PiecewiseLinear epa{anchorSeries(&CurveAnchor::epa), /*log_x=*/true};
    PiecewiseLinear gpa95{anchorSeries(&CurveAnchor::gpa95),
                          /*log_x=*/true};
    PiecewiseLinear gpa99{anchorSeries(&CurveAnchor::gpa99),
                          /*log_x=*/true};
};

const FabDatabase &
FabDatabase::instance()
{
    static const FabDatabase database;
    return database;
}

const FabDatabase::Curves &
FabDatabase::curves() const
{
    static const Curves curves;
    return curves;
}

std::span<const FabNodeRecord>
FabDatabase::records() const
{
    return kFabNodes;
}

std::optional<FabNodeRecord>
FabDatabase::findByName(std::string_view name) const
{
    const std::string lowered = util::toLower(name);
    for (const auto &record : kFabNodes) {
        if (util::toLower(record.name) == lowered)
            return record;
    }
    return std::nullopt;
}

EnergyPerArea
FabDatabase::epa(double nm, NodeLookup lookup) const
{
    checkNodeRange(nm);
    if (lookup == NodeLookup::NearestAnchor)
        return kilowattHoursPerCm2(nearestAnchor(nm).epa);
    return kilowattHoursPerCm2(curves().epa.at(nm));
}

std::pair<double, double>
FabDatabase::gpaColumns(double nm, NodeLookup lookup) const
{
    checkNodeRange(nm);
    if (lookup == NodeLookup::NearestAnchor) {
        const CurveAnchor &anchor = nearestAnchor(nm);
        return {anchor.gpa95, anchor.gpa99};
    }
    return {curves().gpa95.at(nm), curves().gpa99.at(nm)};
}

CarbonPerArea
FabDatabase::gpa(double nm, double abatement, NodeLookup lookup) const
{
    checkAbatement(abatement);
    const auto [at95, at99] = gpaColumns(nm, lookup);

    // Linear in the abatement fraction through the two characterized
    // columns; fractions outside [0.95, 0.99] extrapolate on the same
    // slope (validated to [0.90, 1.0]); emissions never go negative.
    const double t = (abatement - 0.95) / (0.99 - 0.95);
    const double value = std::max(0.0, util::lerp(at95, at99, t));
    return gramsPerCm2(value);
}

CarbonPerArea
FabDatabase::mpa() const
{
    return gramsPerCm2(kMpaGramsPerCm2);
}

} // namespace act::data

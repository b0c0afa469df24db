/**
 * @file
 * Semiconductor fab characterization from the paper's Appendix A.2:
 * per-node fab energy (EPA) and fab gas emissions (GPA) for application
 * processor manufacturing (Table 7, sourced from imec's IEDM'20 DTCO
 * study), raw-material procurement intensity (MPA, Table 8), and default
 * yield. Nodes between table anchors are interpolated log-linearly in
 * feature size; nearest-anchor lookup is kept for the ablation study.
 */

#ifndef ACT_DATA_FAB_DB_H
#define ACT_DATA_FAB_DB_H

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "util/units.h"

namespace act::data {

/** One Table 7 row. */
struct FabNodeRecord
{
    /** Paper's row label, e.g. "28nm", "7nm-EUV-DP". */
    std::string name;
    /** Feature size in nanometers. */
    double nm;
    /** Fab energy per unit area manufactured. */
    util::EnergyPerArea epa;
    /** Gas/chemical emissions per area at 95% abatement. */
    util::CarbonPerArea gpa_abated_95;
    /** Gas/chemical emissions per area at 99% abatement. */
    util::CarbonPerArea gpa_abated_99;
};

/** Interpolation behaviour selector (ablation: Fig. 6 --ablation). */
enum class NodeLookup
{
    Interpolate,
    NearestAnchor,
};

/**
 * The fab database. Immutable singleton over the Appendix data; all
 * queries are by feature size in nanometers within [3, 28].
 */
class FabDatabase
{
  public:
    static const FabDatabase &instance();

    /** All Table 7 rows in paper order (including the EUV variants). */
    std::span<const FabNodeRecord> records() const;

    /** Row by label ("7nm-EUV"); nullopt when absent. */
    std::optional<FabNodeRecord> findByName(std::string_view name) const;

    /** Fab energy per area at a node; fatal outside [3, 28] nm. */
    util::EnergyPerArea
    epa(double nm, NodeLookup lookup = NodeLookup::Interpolate) const;

    /**
     * Gas emissions per area at a node and gaseous-abatement fraction.
     * Table 7 anchors 95% and 99% abatement; intermediate fractions
     * interpolate between the columns and fractions below 95% linearly
     * extrapolate towards the unabated emission level (abatement a
     * removes a fraction a of the raw gas GWP).
     */
    util::CarbonPerArea
    gpa(double nm, double abatement = kDefaultAbatement,
        NodeLookup lookup = NodeLookup::Interpolate) const;

    /**
     * The two characterized abatement columns (95%, 99%) resolved at a
     * node, in g CO2/cm2 -- the per-node constants gpa() interpolates
     * between. Exposed so the compiled Monte Carlo plan
     * (core/eval_plan.h) can resolve the node once and replay the
     * abatement interpolation per sample with bit-identical results.
     */
    std::pair<double, double>
    gpaColumns(double nm,
               NodeLookup lookup = NodeLookup::Interpolate) const;

    /** Raw material procurement intensity (Table 8): 500 g CO2/cm2. */
    util::CarbonPerArea mpa() const;

    /** TSMC's reported gaseous abatement (Fig. 6 annotation). */
    static constexpr double kDefaultAbatement = 0.97;
    /** Default fab yield used by the paper's released tool. */
    static constexpr double kDefaultYield = 0.875;

    /** Valid feature-size query range. */
    static constexpr double kMinNode = 3.0;
    static constexpr double kMaxNode = 28.0;

  private:
    FabDatabase() = default;

    struct Curves;
    const Curves &curves() const;
};

} // namespace act::data

#endif // ACT_DATA_FAB_DB_H

/**
 * @file
 * The Section 7 design-space studies over the NPU model:
 *  - the Fig. 12 metric sweep over 64-2048 MACs,
 *  - the Fig. 13 (left) QoS-constrained carbon minimization,
 *  - the Fig. 13 (right) area-budget Jevons study across nodes.
 */

#ifndef ACT_ACCEL_DESIGN_SPACE_H
#define ACT_ACCEL_DESIGN_SPACE_H

#include <optional>
#include <string>
#include <vector>

#include "accel/npu_model.h"
#include "core/fab_params.h"
#include "core/metrics.h"

namespace act::accel {

/** The paper's MAC-count sweep: 64 to 2048 in powers of two. */
std::vector<int> macSweep();

/** One swept configuration with everything the studies need. */
struct SweepEntry
{
    NpuEvaluation evaluation;
    util::Mass embodied{};
    core::DesignPoint design_point;
};

/** Evaluate the full sweep at one node under given fab conditions,
 *  over the reference vision network. */
std::vector<SweepEntry> sweepDesignSpace(const NpuModel &model,
                                         double node_nm,
                                         const core::FabParams &fab);

/** As above over an arbitrary network (used by the Fig. 12 network
 *  ablation). */
std::vector<SweepEntry> sweepDesignSpace(const NpuModel &model,
                                         const Network &network,
                                         double node_nm,
                                         const core::FabParams &fab);

/** Fig. 13 (left) result. */
struct QosStudy
{
    double qos_fps = 30.0;
    /** Carbon-minimal configuration meeting QoS. */
    std::optional<SweepEntry> carbon_optimal;
    /** Performance-optimal configuration (max FPS). */
    SweepEntry performance_optimal;
    /** Energy-optimal configuration (min energy per frame). */
    SweepEntry energy_optimal;

    /** Embodied overhead of the performance/energy optima relative to
     *  the QoS carbon optimum (the paper's 3.3x and 1.4x). */
    double performanceOverhead() const;
    double energyOverhead() const;
};

QosStudy qosStudy(const NpuModel &model, double node_nm,
                  const core::FabParams &fab, double qos_fps = 30.0);

/** Fig. 13 (right): best configuration under an area budget. */
struct BudgetEntry
{
    double node_nm = 0.0;
    double budget_mm2 = 0.0;
    /** Highest-MAC configuration fitting the budget (nullopt when even
     *  the smallest configuration does not fit). */
    std::optional<SweepEntry> best;
};

BudgetEntry budgetStudy(const NpuModel &model, double node_nm,
                        double budget_mm2, const core::FabParams &fab);

} // namespace act::accel

#endif // ACT_ACCEL_DESIGN_SPACE_H

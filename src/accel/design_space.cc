#include "accel/design_space.h"

#include <utility>

#include "core/embodied.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/trace.h"

namespace act::accel {

std::vector<int>
macSweep()
{
    return {64, 128, 256, 512, 1024, 2048};
}

std::vector<SweepEntry>
sweepDesignSpace(const NpuModel &model, double node_nm,
                 const core::FabParams &fab)
{
    return sweepDesignSpace(model, referenceVisionNetwork(), node_nm,
                            fab);
}

std::vector<SweepEntry>
sweepDesignSpace(const NpuModel &model, const Network &network,
                 double node_nm, const core::FabParams &fab)
{
    TRACE_SPAN("accel.design_space",
               "sweepDesignSpace:" + util::formatSig(node_nm, 3) +
                   "nm");
    // Entries keep the paper's sweep order. Every configuration shares
    // (fab, node), so Eq. 5 is evaluated once for the whole sweep and
    // embodied carbon is a single multiply per entry -- the same
    // CPA * area product model.embodied() computes.
    const util::CarbonPerArea cpa = core::carbonPerArea(fab, node_nm);
    std::vector<SweepEntry> entries;
    for (const int macs : macSweep()) {
        SweepEntry entry;
        entry.evaluation = model.evaluate(network, {macs, node_nm});
        entry.embodied = cpa * entry.evaluation.area;

        entry.design_point.name = std::to_string(macs) + " MACs";
        entry.design_point.embodied = entry.embodied;
        entry.design_point.energy = entry.evaluation.energy_per_frame;
        entry.design_point.delay = entry.evaluation.latency;
        entry.design_point.area = entry.evaluation.area;
        entries.push_back(std::move(entry));
    }
    return entries;
}

double
QosStudy::performanceOverhead() const
{
    if (!carbon_optimal)
        util::fatal("QoS study has no feasible carbon optimum");
    return performance_optimal.embodied / carbon_optimal->embodied;
}

double
QosStudy::energyOverhead() const
{
    if (!carbon_optimal)
        util::fatal("QoS study has no feasible carbon optimum");
    return energy_optimal.embodied / carbon_optimal->embodied;
}

QosStudy
qosStudy(const NpuModel &model, double node_nm,
         const core::FabParams &fab, double qos_fps)
{
    const auto entries = sweepDesignSpace(model, node_nm, fab);

    QosStudy study;
    study.qos_fps = qos_fps;

    const SweepEntry *perf_best = &entries.front();
    const SweepEntry *energy_best = &entries.front();
    const SweepEntry *carbon_best = nullptr;
    for (const auto &entry : entries) {
        if (entry.evaluation.frames_per_second >
            perf_best->evaluation.frames_per_second) {
            perf_best = &entry;
        }
        if (entry.evaluation.energy_per_frame <
            energy_best->evaluation.energy_per_frame) {
            energy_best = &entry;
        }
        if (entry.evaluation.frames_per_second >= qos_fps &&
            (!carbon_best || entry.embodied < carbon_best->embodied)) {
            carbon_best = &entry;
        }
    }

    study.performance_optimal = *perf_best;
    study.energy_optimal = *energy_best;
    if (carbon_best)
        study.carbon_optimal = *carbon_best;
    return study;
}

BudgetEntry
budgetStudy(const NpuModel &model, double node_nm, double budget_mm2,
            const core::FabParams &fab)
{
    BudgetEntry result;
    result.node_nm = node_nm;
    result.budget_mm2 = budget_mm2;

    for (const auto &entry : sweepDesignSpace(model, node_nm, fab)) {
        const double area_mm2 =
            util::asSquareMillimeters(entry.evaluation.area);
        if (area_mm2 > budget_mm2)
            continue;
        if (!result.best ||
            entry.evaluation.config.mac_count >
                result.best->evaluation.config.mac_count) {
            result.best = entry;
        }
    }
    return result;
}

} // namespace act::accel

#include "pkg/pkg_plan.h"

#include <cmath>

#include "core/embodied.h"
#include "core/yield.h"
#include "util/logging.h"

namespace act::pkg {

PackagePlan
PackagePlan::compile(const PackageSpec &spec,
                     const core::FabParams &fab,
                     std::span<const core::EvalInput> bindings)
{
    validatePackageSpec(spec);
    for (const core::EvalInput input : bindings) {
        if (input != core::EvalInput::CiFab &&
            input != core::EvalInput::Abatement) {
            util::fatal("package plans can only bind the fab-level "
                        "inputs 'ci_fab' and 'abatement'; '",
                        core::evalInputName(input),
                        "' is resolved at compile time (yield comes "
                        "from the defect models)");
        }
    }

    PackagePlan plan;
    for (std::size_t i = 0; i < bindings.size(); ++i)
        plan.bindings_[i] = bindings[i];
    plan.input_count_ = bindings.size();

    // Mirror evaluatePackage() expression for expression: the defect
    // models replace the scalar yield, so rows compile at Y = 1 and
    // charge the effective silicon instead.
    core::FabParams perfect_yield = fab;
    perfect_yield.yield = 1.0;

    util::Area silicon_area{};
    for (const ChipletSpec &chiplet : spec.chiplets) {
        util::Area die_area = chiplet.area;
        if (spec.style == PackagingStyle::Stacked3D &&
            spec.tsv_area_overhead > 0.0) {
            die_area = die_area * (1.0 + spec.tsv_area_overhead);
        }
        const double count = static_cast<double>(chiplet.count);
        const util::Area effective =
            core::effectiveAreaPerGoodDie(die_area, chiplet.defects) *
            count;
        silicon_area += die_area * count;
        plan.rows_.push_back(
            {core::EvalPlan::forNode(perfect_yield, chiplet.node_nm,
                                     bindings),
             util::asSquareCentimeters(effective)});
    }

    if (spec.style != PackagingStyle::Monolithic &&
        spec.substrate_area_factor > 0.0) {
        util::Area substrate_area =
            silicon_area * spec.substrate_area_factor;
        if (spec.style == PackagingStyle::SiliconInterposer) {
            substrate_area = core::effectiveAreaPerGoodDie(
                substrate_area, spec.substrate_defects);
        }
        plan.rows_.push_back(
            {core::EvalPlan::forNode(perfect_yield,
                                     spec.substrate_node_nm, bindings),
             util::asSquareCentimeters(substrate_area)});
    }

    const double n = static_cast<double>(spec.dieCount());
    plan.assembly_g_ =
        util::asGrams(core::kPackagingFootprint) +
        util::asGrams(core::kPackagingFootprint) *
            (spec.assembly_overhead_fraction * (n - 1.0));
    plan.package_yield_ = std::pow(
        spec.bond_yield,
        static_cast<double>(bondCount(spec.style, spec.dieCount())));
    return plan;
}

double
PackagePlan::evaluate(const double *values) const
{
    double acc = 0.0;
    for (const Row &row : rows_)
        acc = acc + row.plan.evaluate(values) * row.weight_cm2;
    return (acc + assembly_g_) / package_yield_;
}

void
PackagePlan::evaluateBatch(std::size_t n, const double *const *inputs,
                           double *outputs, double *scratch) const
{
    for (std::size_t s = 0; s < n; ++s)
        outputs[s] = 0.0;
    // Row loop outside, samples inside: each row's CPA column comes
    // from the compiled Eq. 5 batch kernel, then folds into the
    // accumulator with exactly evaluate()'s per-sample expression
    // shapes -- same rounding, same bits, at every dispatch level.
    for (const Row &row : rows_) {
        row.plan.evaluateBatch(n, inputs, scratch);
        const double weight = row.weight_cm2;
        for (std::size_t s = 0; s < n; ++s)
            outputs[s] = outputs[s] + scratch[s] * weight;
    }
    const double assembly = assembly_g_;
    const double package_yield = package_yield_;
    for (std::size_t s = 0; s < n; ++s)
        outputs[s] = (outputs[s] + assembly) / package_yield;
}

} // namespace act::pkg

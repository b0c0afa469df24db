#include "pkg/package.h"

#include <cmath>

#include "core/embodied.h"
#include "util/logging.h"

namespace act::pkg {

std::string_view
packagingStyleName(PackagingStyle style)
{
    switch (style) {
      case PackagingStyle::Monolithic:
        return "monolithic";
      case PackagingStyle::OrganicSubstrate:
        return "organic";
      case PackagingStyle::SiliconInterposer:
        return "interposer";
      case PackagingStyle::Stacked3D:
        return "3d";
    }
    util::panic("unknown PackagingStyle enumerator");
}

PackagingStyle
packagingStyleByName(std::string_view name)
{
    for (const PackagingStyle style : kPackagingStyles) {
        if (packagingStyleName(style) == name)
            return style;
    }
    std::string known;
    for (const PackagingStyle style : kPackagingStyles) {
        if (!known.empty())
            known += ", ";
        known += packagingStyleName(style);
    }
    util::fatal("unknown packaging style '", std::string(name),
                "' (known: ", known, ")");
}

ChipletSpec
splitLogicDie(util::Area logic_area, int num_dies, double node_nm,
              const core::DefectParams &defects,
              double interface_overhead)
{
    const double n = static_cast<double>(num_dies);
    const double scale = 1.0 + interface_overhead * (n - 1.0) / n;
    ChipletSpec die;
    die.name = "die";
    die.area = logic_area * (scale / n);
    die.node_nm = node_nm;
    die.defects = defects;
    die.count = num_dies;
    return die;
}

PackageSpec
PackageSpec::forStyle(PackagingStyle style)
{
    PackageSpec spec;
    spec.style = style;
    switch (style) {
      case PackagingStyle::Monolithic:
        // On-die wires; no substrate, no bonds.
        spec.d2d_energy_pj_per_bit = 0.05;
        break;
      case PackagingStyle::OrganicSubstrate:
        spec.substrate_area_factor = 0.10;
        spec.bond_yield = 0.99;
        spec.d2d_energy_pj_per_bit = 1.0;
        break;
      case PackagingStyle::SiliconInterposer:
        spec.substrate_area_factor = 1.10;
        spec.bond_yield = 0.99;
        spec.d2d_energy_pj_per_bit = 0.30;
        break;
      case PackagingStyle::Stacked3D:
        spec.tsv_area_overhead = 0.05;
        spec.bond_yield = 0.98;
        spec.d2d_energy_pj_per_bit = 0.10;
        break;
    }
    return spec;
}

int
PackageSpec::dieCount() const
{
    int count = 0;
    for (const ChipletSpec &chiplet : chiplets)
        count += chiplet.count;
    return count;
}

void
validatePackageSpec(const PackageSpec &spec)
{
    if (spec.chiplets.empty())
        util::fatal("package spec has an empty chiplet list");
    for (const ChipletSpec &chiplet : spec.chiplets) {
        if (chiplet.count < 1) {
            util::fatal("chiplet group '", chiplet.name,
                        "' count must be >= 1, got ", chiplet.count);
        }
        if (util::asSquareCentimeters(chiplet.area) <= 0.0) {
            util::fatal("chiplet group '", chiplet.name,
                        "' area must be positive");
        }
    }
    if (spec.substrate_area_factor < 0.0) {
        util::fatal("substrate area factor must be >= 0, got ",
                    spec.substrate_area_factor);
    }
    if (spec.substrate_node_nm <= 0.0) {
        util::fatal("interposer/substrate node must be positive, got ",
                    spec.substrate_node_nm, " nm");
    }
    if (!(spec.bond_yield > 0.0 && spec.bond_yield <= 1.0)) {
        util::fatal("bond yield must be in (0, 1], got ",
                    spec.bond_yield);
    }
    if (spec.tsv_area_overhead < 0.0) {
        util::fatal("TSV area overhead must be >= 0, got ",
                    spec.tsv_area_overhead);
    }
    if (spec.tsv_area_overhead > 0.0 &&
        spec.style != PackagingStyle::Stacked3D) {
        util::fatal("TSV area overhead only applies to 3D stacks, not "
                    "the '", packagingStyleName(spec.style),
                    "' style");
    }
    if (spec.assembly_overhead_fraction < 0.0) {
        util::fatal("assembly overhead fraction must be >= 0, got ",
                    spec.assembly_overhead_fraction);
    }
    if (spec.d2d_energy_pj_per_bit < 0.0) {
        util::fatal("die-to-die energy must be >= 0, got ",
                    spec.d2d_energy_pj_per_bit, " pJ/bit");
    }
    if (spec.style == PackagingStyle::Monolithic &&
        spec.dieCount() != 1) {
        util::fatal("a monolithic package holds exactly one die, got ",
                    spec.dieCount());
    }
}

int
bondCount(PackagingStyle style, int die_count)
{
    switch (style) {
      case PackagingStyle::Monolithic:
        return 0;
      case PackagingStyle::OrganicSubstrate:
      case PackagingStyle::SiliconInterposer:
        // One attach per die onto the substrate/interposer.
        return die_count;
      case PackagingStyle::Stacked3D:
        // One bonded interface per stacked pair.
        return die_count - 1;
    }
    util::panic("unknown PackagingStyle enumerator");
}

PackageResult
evaluatePackage(const PackageSpec &spec, const core::FabParams &fab)
{
    validatePackageSpec(spec);

    PackageResult result;
    result.style = spec.style;
    result.die_count = spec.dieCount();
    result.d2d_energy_pj_per_bit = spec.d2d_energy_pj_per_bit;

    // The defect models replace the scalar yield term of Eq. 5:
    // evaluate CPA at Y = 1 and charge the effective (yielded)
    // silicon area instead.
    core::FabParams perfect_yield = fab;
    perfect_yield.yield = 1.0;

    for (const ChipletSpec &chiplet : spec.chiplets) {
        util::Area die_area = chiplet.area;
        if (spec.style == PackagingStyle::Stacked3D &&
            spec.tsv_area_overhead > 0.0) {
            // Every die in the stack lands on the TSV-ready pitch.
            die_area = die_area * (1.0 + spec.tsv_area_overhead);
        }
        const double count = static_cast<double>(chiplet.count);
        const double die_yield =
            core::dieYield(die_area, chiplet.defects);
        const util::Area effective =
            core::effectiveAreaPerGoodDie(die_area, chiplet.defects) *
            count;
        result.silicon_area += die_area * count;
        result.effective_silicon += effective;
        if (die_yield < result.min_die_yield)
            result.min_die_yield = die_yield;
        result.silicon_embodied +=
            core::carbonPerArea(perfect_yield, chiplet.node_nm) *
            effective;
    }

    if (spec.style != PackagingStyle::Monolithic &&
        spec.substrate_area_factor > 0.0) {
        util::Area substrate_area =
            result.silicon_area * spec.substrate_area_factor;
        if (spec.style == PackagingStyle::SiliconInterposer) {
            // Silicon interposers are dies too: charge their own
            // yielded area under the substrate defect model.
            substrate_area = core::effectiveAreaPerGoodDie(
                substrate_area, spec.substrate_defects);
        }
        result.substrate_embodied =
            core::carbonPerArea(perfect_yield, spec.substrate_node_nm) *
            substrate_area;
    }

    // One package plus an assembly increment per extra die.
    const double n = static_cast<double>(result.die_count);
    result.assembly_embodied =
        core::kPackagingFootprint +
        core::kPackagingFootprint *
            (spec.assembly_overhead_fraction * (n - 1.0));

    // A failed bond scraps the assembled package: divide everything
    // by the composed assembly yield.
    result.package_yield = std::pow(
        spec.bond_yield,
        static_cast<double>(bondCount(spec.style, result.die_count)));
    result.total = (result.silicon_embodied +
                    result.substrate_embodied +
                    result.assembly_embodied) /
                   result.package_yield;
    return result;
}

} // namespace act::pkg

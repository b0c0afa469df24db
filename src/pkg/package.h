/**
 * @file
 * Packaging-aware embodied-carbon model -- the multi-die extension of
 * Eq. 5 that ACT v3 (Lee et al.) and 3D-Carbon (Zhao et al.) build:
 * heterogeneous chiplets, each with its own area, process node, and
 * defect model, composed under a packaging style with bonding-yield
 * losses, interposer/substrate silicon, TSV area overheads, and
 * per-die assembly carbon.
 *
 * The model follows the known-good-die (KGD) flow:
 *
 *   1. Each die group is manufactured and tested standalone: the
 *      silicon charged per good die is A / Y(A) with Y from the
 *      classical defect models (core/yield.h), evaluated at the
 *      group's own node -- the Eq. 4/5 arithmetic with the scalar
 *      fab yield replaced by the defect model.
 *   2. 2.5D packages add interposer/substrate silicon sized from the
 *      package footprint; silicon interposers carry their own defect
 *      yield, organic substrates are charged at unit yield.
 *   3. Assembly bonds the known-good dies; every bond can fail, and a
 *      failed bond scraps the whole package, so the total divides by
 *      the composed package yield  Y_pkg = b^bonds  (b the per-bond
 *      yield; organic/2.5D attach one bond per die, 3D stacks bond
 *      n-1 interfaces).
 *
 *   total = (sum_g CPA(node_g) * (A_g / Y_g) * count_g
 *            + CPA(substrate node) * A_sub / Y_sub
 *            + assembly) / Y_pkg
 *
 * evaluatePackage() is the one implementation; the chiplet sweep
 * domain calls it for every grid point and fab-CI scenario.
 */

#ifndef ACT_PKG_PACKAGE_H
#define ACT_PKG_PACKAGE_H

#include <string>
#include <string_view>
#include <vector>

#include "core/fab_params.h"
#include "core/yield.h"
#include "util/units.h"

namespace act::pkg {

/** How the dies of a package are integrated. */
enum class PackagingStyle
{
    /** One die, conventional package -- the Eq. 4 baseline. */
    Monolithic,
    /** Multi-die on an organic build-up substrate (MCM). */
    OrganicSubstrate,
    /** 2.5D integration on a silicon interposer. */
    SiliconInterposer,
    /** 3D die stacking with through-silicon vias. */
    Stacked3D,
};

/** Canonical name ("monolithic", "organic", "interposer", "3d"). */
std::string_view packagingStyleName(PackagingStyle style);

/** Parse a style name; fatal with the known names on miss. */
PackagingStyle packagingStyleByName(std::string_view name);

/** All styles, in declaration order. */
inline constexpr PackagingStyle kPackagingStyles[] = {
    PackagingStyle::Monolithic,
    PackagingStyle::OrganicSubstrate,
    PackagingStyle::SiliconInterposer,
    PackagingStyle::Stacked3D,
};

/**
 * One group of identical dies in a package. Identical dies are
 * manufactured as one batch, so their yielded silicon is charged as
 * (A / Y) * count -- heterogeneous packages list one group per
 * distinct die.
 */
struct ChipletSpec
{
    /** Optional label for reports. */
    std::string name;
    /** Die area before any TSV overhead. */
    util::Area area{};
    /** Process node in nm (Table 7 range [3, 28]). */
    double node_nm = 7.0;
    /** Defect model replacing the scalar fab yield for this die. */
    core::DefectParams defects{};
    /** Number of identical copies of this die in the package. */
    int count = 1;
};

/**
 * The die group of a logic die of @p logic_area at @p node_nm cut
 * into @p num_dies equal dies. Each die carries the die-to-die
 * interface ("beachfront") tax as (1 + interface_overhead * (N - 1)
 * / N) of its share, so N = 1 has none. validatePackageSpec() rejects
 * a non-positive count or area.
 */
ChipletSpec splitLogicDie(util::Area logic_area, int num_dies,
                          double node_nm,
                          const core::DefectParams &defects,
                          double interface_overhead);

/** A multi-die package: dies plus the integration parameters. */
struct PackageSpec
{
    PackagingStyle style = PackagingStyle::Monolithic;
    std::vector<ChipletSpec> chiplets;

    /**
     * Interposer / substrate area as a multiple of the package
     * footprint (0 disables; ~0.1 for organic build-up substrates,
     * ~1.1 for full silicon interposers).
     */
    double substrate_area_factor = 0.0;
    /** Interposers are manufactured in a mature, cheap node. */
    double substrate_node_nm = 28.0;
    /** Defect model for silicon interposers (organic substrates are
     *  charged at unit yield). */
    core::DefectParams substrate_defects{
        0.05, 3.0, core::YieldModel::NegativeBinomial};
    /** Per-bond assembly yield in (0, 1]. */
    double bond_yield = 1.0;
    /** Fractional die-area overhead for TSVs (3D stacks only). */
    double tsv_area_overhead = 0.0;
    /** Extra assembly carbon per die beyond the first, as a fraction
     *  of the per-package Kr (core::kPackagingFootprint). */
    double assembly_overhead_fraction = 0.5;
    /** Die-to-die interface signaling energy, pJ/bit. */
    double d2d_energy_pj_per_bit = 0.0;

    /** A spec preloaded with typical parameters for @p style. */
    static PackageSpec forStyle(PackagingStyle style);

    /** Total number of dies (sum of group counts). */
    int dieCount() const;
};

/**
 * Validate a spec: fatal on an empty chiplet list, non-positive die
 * areas or counts, negative overheads or factors, a non-positive
 * substrate node, a bond yield outside (0, 1], more than one die
 * under the monolithic style, or TSV overhead outside a 3D stack.
 */
void validatePackageSpec(const PackageSpec &spec);

/** The bond count the package yield composes over. */
int bondCount(PackagingStyle style, int die_count);

/** Full evaluation of one package. */
struct PackageResult
{
    PackagingStyle style = PackagingStyle::Monolithic;
    int die_count = 0;
    /** Raw silicon per package (die areas including TSV overhead). */
    util::Area silicon_area{};
    /** Yielded silicon charged per package (sum of (A/Y) * count). */
    util::Area effective_silicon{};
    /** Worst per-die yield across the groups (diagnostic). */
    double min_die_yield = 1.0;
    /** Composed assembly yield b^bonds (1.0 for monolithic). */
    double package_yield = 1.0;

    util::Mass silicon_embodied{};
    util::Mass substrate_embodied{};
    util::Mass assembly_embodied{};
    /** (silicon + substrate + assembly) / package_yield. */
    util::Mass total{};

    /** Die-to-die signaling energy, pJ/bit (style-resolved). */
    double d2d_energy_pj_per_bit = 0.0;
};

/**
 * Evaluate @p spec under fab conditions @p fab (the scalar fab yield
 * is superseded by the per-die defect models).
 */
PackageResult evaluatePackage(const PackageSpec &spec,
                              const core::FabParams &fab);

} // namespace act::pkg

#endif // ACT_PKG_PACKAGE_H

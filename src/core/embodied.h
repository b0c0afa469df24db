/**
 * @file
 * The embodied-carbon half of the ACT model (Section 3.1):
 *
 *   ECF   = Nr * Kr + sum_r E_r                          (Eq. 3)
 *   E_SoC = Area * CPA
 *         = (1/Y) * (CI_fab * EPA + GPA + MPA) * Area    (Eq. 4)
 *   CPA   = (1/Y) * (CI_fab * EPA + GPA + MPA)           (Eq. 5)
 *   E_DRAM = CPS_DRAM * Capacity_DRAM                    (Eq. 6)
 *   E_HDD  = CPS_HDD  * Capacity_HDD                     (Eq. 7)
 *   E_SSD  = CPS_SSD  * Capacity_SSD                     (Eq. 8)
 *
 * The model covers direct fab impact only; secondary overheads (such as
 * building the fab or EUV machines) are excluded, so estimates are a
 * lower bound -- exactly as the paper states.
 */

#ifndef ACT_CORE_EMBODIED_H
#define ACT_CORE_EMBODIED_H

#include <string>
#include <vector>

#include "core/fab_params.h"
#include "data/device_db.h"
#include "data/memory_db.h"
#include "util/units.h"

namespace act::core {

/** Per-IC packaging footprint Kr = 0.15 kg CO2 (SPIL CSR report). */
constexpr util::Mass kPackagingFootprint = util::grams(150.0);

/**
 * Eq. 5: carbon per unit area manufactured for a logic die at feature
 * size @p nm under fab conditions @p fab. Fatal outside [3, 28] nm.
 */
util::CarbonPerArea carbonPerArea(const FabParams &fab, double nm);

/**
 * CPA for a named Table 7 node label (resolving the EUV variants), at
 * the given fab conditions. Fatal on unknown labels.
 */
util::CarbonPerArea carbonPerAreaNamed(const FabParams &fab,
                                       std::string_view node_name);

/** Eq. 4: embodied carbon of a logic die. */
util::Mass logicEmbodied(util::Area area, double nm, const FabParams &fab);

/** Eqs. 6-8: embodied carbon of a memory/storage part. */
util::Mass storageEmbodied(util::Capacity capacity,
                           util::CarbonPerCapacity cps);

/** storageEmbodied() resolving the technology via the memory database. */
util::Mass storageEmbodied(util::Capacity capacity,
                           std::string_view technology);

/** Packaging term of Eq. 3 for @p package_count discrete ICs. */
util::Mass packagingEmbodied(int package_count);

/** The embodied footprint of one device IC plus its identification. */
struct ComponentFootprint
{
    std::string name;
    data::IcCategory category = data::IcCategory::OtherIc;
    util::Mass embodied{};
};

/** A full device embodied-footprint evaluation. */
struct DeviceFootprint
{
    /** Per-IC contributions, in BOM order. */
    std::vector<ComponentFootprint> components;
    /** Total packaging contribution (Nr * Kr). */
    util::Mass packaging{};
    /** Total number of discrete IC packages (Nr). */
    int package_count = 0;

    /** Sum of all components. */
    util::Mass componentTotal() const;
    /** Eq. 3: components plus packaging. */
    util::Mass total() const;
    /** Sum over components of one Fig. 4 category. */
    util::Mass categoryTotal(data::IcCategory category) const;
};

/**
 * Evaluates Eq. 3 over a device bill of materials: logic ICs via
 * Eq. 4/5, memory and storage via Eqs. 6-8, plus Nr * Kr packaging.
 */
class EmbodiedModel
{
  public:
    explicit EmbodiedModel(FabParams fab = FabParams{});

    /** Embodied footprint of one IC (excluding packaging). */
    util::Mass icEmbodied(const data::IcComponent &ic) const;

    /** Eq. 3 over a whole device. */
    DeviceFootprint evaluate(const data::DeviceRecord &device) const;

  private:
    FabParams fab_;
};

} // namespace act::core

#endif // ACT_CORE_EMBODIED_H

/**
 * @file
 * The SSD lifetime and over-provisioning study of Section 8 / Fig. 15.
 *
 * Lifetime follows Meza et al.'s field-failure model:
 *
 *   Lifetime (years) = PEC * (1 + PF)
 *                      / (365 * DWPD * WA(PF) * R_compress)
 *
 * where PEC is the NAND program/erase-cycle budget, PF the
 * over-provisioning factor, DWPD full-drive writes per day, WA the
 * write-amplification factor, and R_compress the compression rate.
 * Raising PF lowers WA and extends lifetime, but each extra spare
 * gigabyte carries embodied carbon (Eq. 8).
 */

#ifndef ACT_SSD_LIFETIME_H
#define ACT_SSD_LIFETIME_H

#include "data/memory_db.h"
#include "util/units.h"

namespace act::ssd {

/** Fixed reliability parameters (PEC, DWPD, R_compress per [56]). */
struct ReliabilityParams
{
    /** NAND program/erase-cycle budget (TLC-class). */
    double pec = 3000.0;
    /** Full physical-drive writes per day. */
    double dwpd = 1.3;
    /** Storage compression rate. */
    double r_compress = 1.0;
};

/** Meza et al. lifetime at over-provisioning factor @p pf. */
util::Duration ssdLifetime(double pf, const ReliabilityParams &params =
                                          ReliabilityParams{});

/** One point of the Fig. 15 sweep. */
struct OverProvisionPoint
{
    double pf = 0.0;
    double write_amplification = 0.0;
    double lifetime_years = 0.0;
    /** Devices consumed over the service period. */
    double devices = 0.0;
    /** Embodied carbon of all devices consumed over the service
     *  period (physical capacity includes the spare area). */
    util::Mass effective_embodied{};
};

/** Study configuration. */
struct ProvisioningStudyParams
{
    ReliabilityParams reliability{};
    /** User-visible capacity of one drive. */
    util::Capacity user_capacity = util::gigabytes(128.0);
    /** Carbon per gigabyte of the NAND technology. */
    util::CarbonPerCapacity cps = data::defaultSsd().cps;
    /** Service period the storage must cover. */
    util::Duration service_period = util::years(2.0);
    /** Whether devices are replaced in whole units (ceil) or the
     *  accounting amortizes fractionally. The paper's curves are
     *  smooth, so fractional is the default. */
    bool whole_devices = false;
};

/** Evaluate one over-provisioning factor. */
OverProvisionPoint evaluateOverProvision(
    double pf, const ProvisioningStudyParams &params);

/**
 * The smallest PF whose lifetime covers the service period -- the
 * embodied-optimal reliability provisioning when devices are counted
 * in whole units (the paper's 16% for one ~2-year mobile life, 34% for
 * a 4-year second-life deployment).
 */
double minimumPfForService(const ProvisioningStudyParams &params,
                           double lo = 0.01, double hi = 0.60);

} // namespace act::ssd

#endif // ACT_SSD_LIFETIME_H

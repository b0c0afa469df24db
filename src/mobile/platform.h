/**
 * @file
 * Mobile platform model backing Fig. 8: converts an SoC database record
 * into performance, energy, embodied-carbon, and metric design points.
 *
 * Delay is the time to complete a fixed reference amount of Geekbench
 * work (a score of 1000 corresponds to 1 second), energy is TDP times
 * delay (the paper's power proxy), and the platform embodied footprint
 * is the SoC die (Eq. 4) plus its DRAM (Eq. 6) plus packaging for both
 * packages (Eq. 3).
 */

#ifndef ACT_MOBILE_PLATFORM_H
#define ACT_MOBILE_PLATFORM_H

#include <vector>

#include "core/embodied.h"
#include "core/metrics.h"
#include "data/soc_db.h"

namespace act::mobile {

/** Reference work: score x seconds (score 1000 finishes in 1 s). */
constexpr double kReferenceScoreSeconds = 1000.0;

/** Embodied breakdown of one mobile platform. */
struct PlatformEmbodied
{
    util::Mass soc{};
    util::Mass dram{};
    util::Mass packaging{};

    util::Mass total() const { return soc + dram + packaging; }
};

/** Eq. 3/4/6 over an SoC record (SoC die + shipping DRAM + packages). */
PlatformEmbodied platformEmbodied(const data::SocRecord &soc,
                                  const core::FabParams &fab);

/** Time to complete the reference work on this SoC. */
util::Duration referenceDelay(const data::SocRecord &soc);

/** Energy for the reference work at TDP. */
util::Energy referenceEnergy(const data::SocRecord &soc);

/** Full design point (delay, energy, embodied, area) for one SoC. */
core::DesignPoint designPoint(const data::SocRecord &soc,
                              const core::FabParams &fab);

/** Design points for every SoC in the database, in database order. */
std::vector<core::DesignPoint>
mobileDesignSpace(const core::FabParams &fab);

} // namespace act::mobile

#endif // ACT_MOBILE_PLATFORM_H

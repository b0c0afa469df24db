/**
 * @file
 * Defect-density yield models. Table 1 treats yield Y as a free
 * parameter in (0, 1]; this module computes it from die area and a
 * process defect density using the classic models, which makes the
 * CPA of Eq. 5 area-dependent and enables the chiplet analysis that
 * the paper lists under the Reuse tenet (Fig. 1).
 *
 *   Poisson:           Y = exp(-A * D0)
 *   Murphy:            Y = ((1 - exp(-A * D0)) / (A * D0))^2
 *                      (computed via expm1 so the small-A*D0 limit
 *                      approaches 1 instead of cancelling to garbage)
 *   Negative binomial: Y = (1 + A * D0 / alpha)^(-alpha)
 *
 * with A the die area, D0 the defect density (defects/cm2), and alpha
 * the defect-clustering parameter.
 */

#ifndef ACT_CORE_YIELD_H
#define ACT_CORE_YIELD_H

#include "util/units.h"

namespace act::core {

/** Which classical yield formula to apply. */
enum class YieldModel
{
    Poisson,
    Murphy,
    NegativeBinomial,
};

/** Process defect characteristics. */
struct DefectParams
{
    /** Defect density in defects per cm2. Leading-edge logic processes
     *  run ~0.05-0.2 early in life and mature towards ~0.05. */
    double defect_density_per_cm2 = 0.1;
    /** Negative-binomial clustering parameter (typ. 2-5). */
    double clustering_alpha = 3.0;
    YieldModel model = YieldModel::NegativeBinomial;
};

/**
 * Die yield for a given area under the defect model; always in (0, 1].
 * Fatal for non-positive area or defect density, or alpha <= 0 with
 * the negative-binomial model.
 */
double dieYield(util::Area die_area, const DefectParams &defects);

/**
 * Effective silicon area manufactured per good die: A / Y(A). This is
 * the quantity Eq. 4 charges carbon for, so embodied carbon grows
 * super-linearly with monolithic die size.
 */
util::Area effectiveAreaPerGoodDie(util::Area die_area,
                                   const DefectParams &defects);

} // namespace act::core

#endif // ACT_CORE_YIELD_H

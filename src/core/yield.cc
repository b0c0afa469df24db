#include "core/yield.h"

#include <cmath>

#include "util/logging.h"

namespace act::core {

double
dieYield(util::Area die_area, const DefectParams &defects)
{
    const double area_cm2 = util::asSquareCentimeters(die_area);
    if (area_cm2 <= 0.0)
        util::fatal("die area must be positive");
    if (defects.defect_density_per_cm2 <= 0.0)
        util::fatal("defect density must be positive");

    const double lambda = area_cm2 * defects.defect_density_per_cm2;
    switch (defects.model) {
      case YieldModel::Poisson:
        return std::exp(-lambda);
      case YieldModel::Murphy: {
        // (1 - exp(-x))/x cancels catastrophically as x -> 0 (the
        // numerator loses all significant bits around x ~ 2^-53 and
        // the quotient collapses to 0 instead of 1). expm1 computes
        // the series 1 - x/2 + x^2/6 - ... to full precision at
        // small x, so Y -> 1 smoothly as A*D0 -> 0.
        const double term = -std::expm1(-lambda) / lambda;
        return term * term;
      }
      case YieldModel::NegativeBinomial: {
        if (defects.clustering_alpha <= 0.0)
            util::fatal("clustering alpha must be positive");
        return std::pow(1.0 + lambda / defects.clustering_alpha,
                        -defects.clustering_alpha);
      }
    }
    util::panic("unknown YieldModel enumerator");
}

util::Area
effectiveAreaPerGoodDie(util::Area die_area, const DefectParams &defects)
{
    return die_area / dieYield(die_area, defects);
}

} // namespace act::core

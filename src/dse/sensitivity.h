/**
 * @file
 * One-at-a-time (tornado) sensitivity analysis over a model's named
 * parameters: perturb each parameter to its low/high bound while
 * holding the rest at baseline, and rank parameters by output swing.
 * Used to quantify which Table 1 inputs (CI_fab, EPA, GPA, MPA, yield)
 * dominate the CPA estimate -- the uncertainty question ACT's
 * follow-on work raises.
 */

#ifndef ACT_DSE_SENSITIVITY_H
#define ACT_DSE_SENSITIVITY_H

#include <functional>
#include <string>
#include <vector>

namespace act::dse {

/** One parameter's perturbation range. */
struct ParameterRange
{
    std::string name;
    double baseline = 0.0;
    double low = 0.0;
    double high = 0.0;
};

/** One row of a tornado diagram. */
struct TornadoEntry
{
    std::string name;
    /** Model output with the parameter at its low / high bound. */
    double output_low = 0.0;
    double output_high = 0.0;

    /** Total swing |high - low|. */
    double swing() const;
};

/**
 * Evaluate @p model over each parameter's bounds. The model receives
 * the full parameter vector (baselines with one entry perturbed), in
 * the order of @p parameters. Entries are returned sorted by
 * descending swing; fatal on an empty parameter list.
 */
std::vector<TornadoEntry>
tornado(const std::vector<ParameterRange> &parameters,
        const std::function<double(const std::vector<double> &)> &model);

} // namespace act::dse

#endif // ACT_DSE_SENSITIVITY_H

/**
 * @file
 * The ACT model parameters as configuration: the default scenario, the
 * reader for a sweep plan's "fab" section, and the fingerprint that
 * ties serialized artifacts to the compiled-in model data.
 */

#ifndef ACT_CORE_MODEL_CONFIG_H
#define ACT_CORE_MODEL_CONFIG_H

#include <string>

#include "config/json.h"
#include "core/fab_params.h"
#include "core/operational.h"
#include "util/units.h"

namespace act::core {

/** A complete model scenario: fab, use phase, and lifetime. */
struct Scenario
{
    FabParams fab;
    OperationalParams operational;
    util::Duration lifetime = util::years(3.0);
};

/**
 * Read a "fab" section: "ci_fab_g_per_kwh", "abatement", "yield" and
 * "lookup" ("interpolate" or "nearest"); missing keys keep their
 * defaults. Throws config::JsonTypeError naming a bad field. Eq. 5
 * checks the yield and abatement when it runs.
 */
FabParams fabParamsFromJson(const config::JsonValue &value);

/**
 * A 16-hex-digit fingerprint of the compiled-in model data the CPA
 * computation depends on: the Table 7 fab database (per-node EPA/GPA,
 * MPA), the default fab/use carbon intensities, and a format-version
 * salt. Serialized artifacts keyed on model outputs -- sweep plans and
 * shard partials -- embed it, so an artifact produced by a different
 * data vintage is detected as stale instead of silently replayed.
 */
std::string modelConfigFingerprint();

} // namespace act::core

#endif // ACT_CORE_MODEL_CONFIG_H

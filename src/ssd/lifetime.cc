#include "ssd/lifetime.h"

#include <cmath>

#include "ssd/wa_model.h"
#include "util/logging.h"

namespace act::ssd {

util::Duration
ssdLifetime(double pf, const ReliabilityParams &params)
{
    if (params.pec <= 0.0 || params.dwpd <= 0.0 ||
        params.r_compress <= 0.0) {
        util::fatal("reliability parameters must be positive");
    }
    const double wa = analyticalWriteAmplification(pf);
    const double years =
        params.pec * (1.0 + pf) /
        (365.0 * params.dwpd * wa * params.r_compress);
    return util::years(years);
}

OverProvisionPoint
evaluateOverProvision(double pf, const ProvisioningStudyParams &params)
{
    OverProvisionPoint point;
    point.pf = pf;
    point.write_amplification = analyticalWriteAmplification(pf);
    point.lifetime_years =
        util::asYears(ssdLifetime(pf, params.reliability));

    const double service_years = util::asYears(params.service_period);
    double devices = service_years / point.lifetime_years;
    if (params.whole_devices)
        devices = std::ceil(devices - 1e-9);
    devices = std::max(devices, 1.0);
    point.devices = devices;

    const util::Capacity physical_capacity =
        params.user_capacity * (1.0 + pf);
    point.effective_embodied =
        (params.cps * physical_capacity) * devices;
    return point;
}

double
minimumPfForService(const ProvisioningStudyParams &params, double lo,
                    double hi)
{
    const double service_years = util::asYears(params.service_period);
    if (util::asYears(ssdLifetime(hi, params.reliability)) <
        service_years) {
        util::fatal("even PF=", hi, " cannot cover a ", service_years,
                    "-year service period");
    }
    // Lifetime is monotonically increasing in PF; bisect.
    double low = lo;
    double high = hi;
    for (int i = 0; i < 60; ++i) {
        const double mid = 0.5 * (low + high);
        if (util::asYears(ssdLifetime(mid, params.reliability)) >=
            service_years) {
            high = mid;
        } else {
            low = mid;
        }
    }
    return high;
}

} // namespace act::ssd

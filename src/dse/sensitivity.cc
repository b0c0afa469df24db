#include "dse/sensitivity.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace act::dse {

namespace {

util::Counter &g_tornado_evals =
    util::MetricsRegistry::instance().counter("dse.tornado.evals");

} // namespace

double
TornadoEntry::swing() const
{
    return std::fabs(output_high - output_low);
}

std::vector<TornadoEntry>
tornado(const std::vector<ParameterRange> &parameters,
        const std::function<double(const std::vector<double> &)> &model)
{
    TRACE_SPAN("dse.tornado", "tornado");
    if (parameters.empty())
        util::fatal("tornado() needs at least one parameter");
    g_tornado_evals.add(2 * parameters.size());

    std::vector<double> baseline;
    baseline.reserve(parameters.size());
    for (const auto &parameter : parameters)
        baseline.push_back(parameter.baseline);

    // Entries fill in parameter order, so ties keep parameter order
    // through the stable sort below.
    std::vector<TornadoEntry> entries;
    entries.reserve(parameters.size());
    for (std::size_t i = 0; i < parameters.size(); ++i) {
        std::vector<double> values = baseline;
        TornadoEntry entry;
        entry.name = parameters[i].name;
        values[i] = parameters[i].low;
        entry.output_low = model(values);
        values[i] = parameters[i].high;
        entry.output_high = model(values);
        entries.push_back(std::move(entry));
    }

    std::stable_sort(entries.begin(), entries.end(),
                     [](const TornadoEntry &a, const TornadoEntry &b) {
                         return a.swing() > b.swing();
                     });
    return entries;
}

} // namespace act::dse

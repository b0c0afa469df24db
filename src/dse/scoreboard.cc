#include "dse/scoreboard.h"

#include <utility>

#include "util/logging.h"
#include "util/trace.h"

namespace act::dse {

Scoreboard::Scoreboard(std::vector<core::DesignPoint> designs,
                       std::size_t baseline_index)
    : designs_(std::move(designs))
{
    TRACE_SPAN("dse.scoreboard", "build");
    if (designs_.empty())
        util::fatal("Scoreboard over an empty design space");
    if (baseline_index >= designs_.size())
        util::fatal("Scoreboard baseline index out of range");

    // One column per metric, in Table 2 order.
    const auto metrics = core::allMetrics();
    columns_.reserve(metrics.size());
    for (const core::Metric metric : metrics) {
        MetricColumn column;
        column.metric = metric;
        column.values.reserve(designs_.size());
        for (const auto &design : designs_)
            column.values.push_back(core::evaluateMetric(metric, design));
        column.normalized =
            core::normalizedMetric(metric, designs_, baseline_index);
        column.best_index = core::bestDesign(metric, designs_);
        columns_.push_back(std::move(column));
    }
}

const MetricColumn &
Scoreboard::column(core::Metric metric) const
{
    for (const auto &column : columns_) {
        if (column.metric == metric)
            return column;
    }
    util::panic("Scoreboard missing a metric column");
}

const std::string &
Scoreboard::winner(core::Metric metric) const
{
    return designs_[column(metric).best_index].name;
}

} // namespace act::dse

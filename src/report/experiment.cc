#include "report/experiment.h"

#include <cstring>
#include <iostream>

#include "obs/metrics_doc.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace act::report {

Options
parseOptions(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--csv") == 0) {
            options.csv = true;
        } else if (std::strcmp(argv[i], "--ablation") == 0) {
            options.ablation = true;
        } else if (std::strcmp(argv[i], "--metrics") == 0) {
            options.metrics = true;
            util::setMetricsEnabled(true);
        } else if (std::strcmp(argv[i], "--trace") == 0) {
            if (i + 1 >= argc)
                util::fatal("--trace needs a file path");
            options.trace_file = argv[++i];
            util::setTraceFile(options.trace_file);
        } else if (std::strcmp(argv[i], "--help") == 0) {
            std::cout << "usage: " << argv[0]
                      << " [--csv] [--ablation] [--metrics]"
                         " [--trace <file>]\n";
            std::exit(0);
        } else {
            util::fatal("unknown option '", argv[i],
                        "' (supported: --csv, --ablation, --metrics, "
                        "--trace <file>, --help)");
        }
    }
    return options;
}

Experiment::Experiment(std::string id, std::string title)
    : id_(std::move(id)), span_("bench", id_)
{
    std::cout << "=== " << id_ << ": " << title << " ===\n";
}

Experiment::~Experiment()
{
    span_.finish();
    if (util::metricsEnabled()) {
        std::cout << "\n--- metrics (" << id_ << ") ---\n"
                  << obs::renderMetricsDocTable(obs::metricsToJson(
                         util::MetricsRegistry::instance().snapshot()));
    }
}

void
Experiment::section(std::string_view name) const
{
    std::cout << "\n--- " << name << " ---\n";
}

void
Experiment::claim(std::string_view label, std::string_view paper,
                  std::string_view measured) const
{
    std::cout << "[claim] " << label << ": paper=" << paper
              << " measured=" << measured << '\n';
}

void
Experiment::note(std::string_view text) const
{
    std::cout << "[note] " << text << '\n';
}

} // namespace act::report

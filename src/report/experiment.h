/**
 * @file
 * Shared scaffolding for the bench harness: every table/figure binary
 * announces itself, prints its series through util::Table /
 * util::renderBarChart, and reports "paper vs measured" claim lines in
 * a uniform format that EXPERIMENTS.md mirrors.
 */

#ifndef ACT_REPORT_EXPERIMENT_H
#define ACT_REPORT_EXPERIMENT_H

#include <string>
#include <string_view>

#include "util/trace.h"

namespace act::report {

/** Command-line options shared by all bench binaries. */
struct Options
{
    /** Dump machine-readable CSV after the human-readable output. */
    bool csv = false;
    /** Run any ablation variant the binary defines. */
    bool ablation = false;
    /** Print the metrics-registry table at the end of the run. */
    bool metrics = false;
    /** Chrome trace-event output file ("" = tracing off). */
    std::string trace_file;
};

/**
 * Parse --csv / --ablation / --metrics / --trace <file>; unknown flags
 * are fatal. --metrics enables the registry (util::setMetricsEnabled)
 * and --trace starts recording (util::setTraceFile) as side effects,
 * mirroring the ACT_METRICS / ACT_TRACE environment variables.
 */
Options parseOptions(int argc, char **argv);

/** One experiment's console reporter. */
class Experiment
{
  public:
    /**
     * @param id paper artifact id, e.g. "Figure 12".
     * @param title short description.
     */
    Experiment(std::string id, std::string title);

    /**
     * Ends the per-figure trace span and prints the end-of-run
     * metrics table when metrics are enabled. The trace file is
     * written once, at process exit.
     */
    ~Experiment();

    /** Print a section sub-header. */
    void section(std::string_view name) const;

    /** Report a paper-claimed value against the measured one. */
    void claim(std::string_view label, std::string_view paper,
               std::string_view measured) const;

    /** Free-form note line. */
    void note(std::string_view text) const;

  private:
    std::string id_;
    /** Spans the whole figure/table run ("bench" category). */
    util::TraceSpan span_;
};

} // namespace act::report

#endif // ACT_REPORT_EXPERIMENT_H

/**
 * @file
 * Serializable, mergeable metrics snapshots: the `act.metrics.v2` JSON
 * document. A document captures one process's `util::MetricsRegistry`
 * snapshot in a form that survives process boundaries -- counters and
 * histograms with explicit bucket bounds plus their sum/count/min/max
 * -- so a sharded sweep's telemetry can be aggregated exactly like its
 * results are (see sweep/engine.h). It is the only form in which
 * metrics leave the registry: every metrics table and the Prometheus
 * output are rendered from it.
 *
 * Document shape (all maps are name-keyed objects, so serialization
 * is deterministic via the config JSON writer's ordered maps):
 *
 *   {
 *     "format": "act.metrics.v2",
 *     "counters":   { "sweep.items": 10000, ... },
 *     "histograms": { "parallel.chunk_us": {
 *                       "bounds": [1, 2, 5, ...],   // finite uppers
 *                       "counts": [3, 0, 1, ...],   // bounds + overflow
 *                       "count": 4, "sum": 18.25,
 *                       "min": 0.5, "max": 9.75 }, ... }
 *   }
 *
 * Merge semantics (mergeMetricsDocs): counters sum; histograms merge
 * bucket-wise after an exact bounds-compatibility check (mismatched
 * ladders are fatal, never silently misbinned). Merging one document
 * is the identity, so single- and multi-process paths share one
 * schema.
 */

#ifndef ACT_OBS_METRICS_DOC_H
#define ACT_OBS_METRICS_DOC_H

#include <string>
#include <vector>

#include "config/json.h"
#include "util/metrics.h"

namespace act::obs {

/** The "format" field every act.metrics.v2 document carries. */
extern const char *const kMetricsFormat;

/** Serialize one process's snapshot as an act.metrics.v2 document. */
config::JsonValue metricsToJson(const util::MetricsSnapshot &snapshot);

/**
 * Validate the schema of @p doc: the format tag, every required
 * histogram field (`bounds`, `counts`, `count`, `sum`, `min`, `max`),
 * counts arrays sized bounds + 1, and counters, histogram `count` and
 * bucket counts as non-negative integers in 64-bit range. On violation, fatal through config::readJsonAs()
 * as "bad metrics in <origin>: <section>: '<field>' must be ...", or
 * "bad metrics document: ..." without an @p origin (e.g. "sweep
 * partial 'p.json'"). Returns the document so call sites can
 * validate-and-use in one expression.
 */
const config::JsonValue &validateMetricsDoc(const config::JsonValue &doc,
                                            const std::string &origin = {});

/**
 * Merge act.metrics.v2 documents into one: counters sum, histogram
 * buckets and statistics combine. Fatal when a document is malformed
 * or two histograms with the same name disagree on bucket bounds. An empty input vector
 * yields an empty (but valid) document.
 */
config::JsonValue
mergeMetricsDocs(const std::vector<config::JsonValue> &docs);

/**
 * Render a document in the Prometheus text exposition format
 * (version 0.0.4): metric names are prefixed with `act_` and
 * sanitized, counters map to their native type, histograms emit
 * cumulative `_bucket{le=...}` series plus `_sum`/`_count`.
 */
std::string renderPrometheus(const config::JsonValue &doc);

/**
 * ASCII table (util/table) of a document: one row per metric with
 * Type, Count, Mean, P50, P95, Min and Max columns. Histogram
 * quantiles are interpolated inside the bucket holding the rank. This
 * is the table bench `--metrics`, `act --metrics` and `act merge`
 * print.
 */
std::string renderMetricsDocTable(const config::JsonValue &doc);

} // namespace act::obs

#endif // ACT_OBS_METRICS_DOC_H

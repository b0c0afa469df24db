/**
 * @file
 * The serialized-plan sweep engine behind `act sweep` and `act merge`:
 * it evaluates a registered domain's chunks (sweep/domains.h) with
 * util::runChunks (util/parallel.h) and owns chunking, per-chunk RNG
 * streams, instrumentation, and result assembly. The determinism contract:
 *
 *  - Chunk layout is a pure function of the plan (see plan.h), so
 *    results are bit-identical for any thread count.
 *  - Chunk c draws from the RNG stream util::deriveSeed(plan.seed, c),
 *    so which thread runs a chunk never changes what it samples.
 *  - Payloads are kept in chunk order.
 *
 * The same layout drives multi-process sharding: `runShardedSweep`
 * evaluates one shard's contiguous chunk slice into JSON payloads,
 * `toJson`/`shardResultFromJson` move partials between processes, and
 * `mergeShards` recombines them -- rejecting overlapping, missing, or
 * mismatched partials -- into a result document byte-identical to a
 * single-process `fullSweepResult` run.
 *
 * A partial ("act.sweep.partial.v2") carries each number array of a
 * payload as the exact IEEE-754 bits of its elements rather than as
 * decimal text, so writing and reading a partial is bit-exact by
 * construction and costs no number formatting. Only the partial
 * changes shape; payloads and the merged result document do not.
 */

#ifndef ACT_SWEEP_ENGINE_H
#define ACT_SWEEP_ENGINE_H

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "config/json.h"
#include "sweep/plan.h"
#include "util/parallel.h"
#include "util/random.h"

namespace act::sweep {

/** A domain's chunk evaluator: the JSON payload of one chunk. */
using JsonChunkEvaluator = std::function<config::JsonValue(
    std::size_t chunk, util::IndexRange range,
    util::Xorshift64Star &rng)>;

/** One shard's ordered partial results. */
struct ShardResult
{
    SweepPlan plan;
    ShardSpec shard;
    /** Global index of the first owned chunk. */
    std::size_t chunk_begin = 0;
    /** Payloads for chunks [chunk_begin, chunk_begin + size()). */
    std::vector<config::JsonValue> chunks;
    /**
     * Optional telemetry: an act.metrics.v2 document (obs/metrics_doc)
     * riding along in the partial file, or null. Telemetry never
     * touches the result path -- mergeShards() strips it, so the
     * merged document stays byte-identical whether or not shards
     * carried metrics.
     */
    config::JsonValue metrics;
};

/** Observability knobs for a shard run; defaults disable everything. */
struct ShardRunOptions
{
    /** Heartbeat sidecar path (act.heartbeat.v1); empty disables. */
    std::string heartbeat_path;
    /** Minimum seconds between heartbeat writes. */
    double heartbeat_interval_s = 1.0;
};

/**
 * Evaluate the slice of @p plan owned by @p shard (chunks still run in
 * parallel within the shard). Fatal when the plan has no
 * items or the shard spec is invalid. With a heartbeat path in
 * @p options, progress is published per chunk through a time-gated
 * obs::HeartbeatWriter -- purely observational, the payloads are
 * bit-identical either way.
 */
ShardResult runShardedSweep(const SweepPlan &plan,
                            const ShardSpec &shard,
                            const JsonChunkEvaluator &evaluator,
                            const ShardRunOptions &options = {});

/**
 * Partial-result file document ("act.sweep.partial.v2"). Inside each
 * chunk payload, every non-empty array whose elements are all numbers
 * is written as {"f64": "<hex>"}: 16 lowercase hex digits per element,
 * the element's binary64 bit pattern read as a uint64_t, most
 * significant digit first, so no host byte order is involved. Every
 * other value -- objects, strings, scalars, mixed or empty arrays, the
 * plan, the shard fields and metrics -- is written as JSON. A payload
 * object whose only key is "f64" is therefore reserved (a panic).
 */
config::JsonValue toJson(const ShardResult &result);

/**
 * Read a toJson() document, restoring every packed array to the exact
 * numbers it was written from. Only v2 is read: a v1 partial fails on
 * 'format'. Throws config::JsonTypeError naming a bad field, and for a
 * packed array that is not 16 hex digits of a finite number per
 * element, "chunk <global index>: 'f64[i]' must be ...".
 */
ShardResult shardResultFromJson(const config::JsonValue &value);

/**
 * Recombine partials into the canonical result document, moving each
 * shard's payloads into it (pass an rvalue to avoid copying them).
 * Fatal when shards disagree on the plan or shard count, repeat a
 * shard index, overlap, or fail to cover every chunk -- a partial set
 * that merges is guaranteed bit-identical to the single-process run.
 */
config::JsonValue mergeShards(std::vector<ShardResult> shards);

/**
 * Single-process reference run: evaluate every chunk and return the
 * canonical result document ("act.sweep.result.v1", payloads in chunk
 * order) that mergeShards() reproduces byte-for-byte.
 */
config::JsonValue fullSweepResult(const SweepPlan &plan,
                                  const JsonChunkEvaluator &evaluator);

} // namespace act::sweep

#endif // ACT_SWEEP_ENGINE_H

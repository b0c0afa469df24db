/**
 * @file
 * The serializable description of one design-space sweep.
 *
 * A `SweepPlan` pins everything that determines a sweep's chunk layout
 * and random streams: the domain name (which evaluator runs), the
 * index-space size, the chunk granularity, the base seed, and a
 * model-config fingerprint that ties the plan to the compiled-in data
 * tables. Because the chunk layout is a pure function of the plan --
 * never of the thread count or host -- a plan can be executed whole,
 * or split across processes with a `ShardSpec`, and the recombined
 * result is bit-identical either way (see engine.h).
 *
 * Plans round-trip through the in-repo `config` JSON parser:
 *
 *   {
 *     "domain": "cpa_montecarlo",   // registered sweep domain
 *     "items": 10000,               // index-space size (0 = domain default,
 *                                   //   at most kMaxSweepItems)
 *     "grain": 2048,                // chunk granularity (0 = automatic)
 *     "seed": 42,                   // base seed for per-chunk RNG streams
 *     "fingerprint": "",            // model-config fingerprint ("" = fill in)
 *     "config": { ... }             // domain-specific parameters
 *   }
 */

#ifndef ACT_SWEEP_PLAN_H
#define ACT_SWEEP_PLAN_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "config/json.h"
#include "util/parallel.h"

namespace act::sweep {

/**
 * The largest index space a plan may declare, 2^30 items. A Monte
 * Carlo sweep keeps one 8-byte output per item, 8 GiB at this bound;
 * a larger plan is rejected when it is read rather than failing to
 * allocate its chunks or outputs.
 */
inline constexpr std::uint64_t kMaxSweepItems = std::uint64_t{1} << 30;

/** Serializable description of one sweep over [0, items). */
struct SweepPlan
{
    /** Registered evaluator name (e.g. "cpa_montecarlo", "mobile"). */
    std::string domain;
    /** Index-space size; 0 lets the domain fill in its natural size. */
    std::size_t items = 0;
    /**
     * Chunk granularity. 0 selects the automatic grain of
     * util::staticChunks(), a function of `items` only -- never of
     * the thread count -- for every sweep kind.
     */
    std::size_t grain = 0;
    /** Base seed; chunk c draws from util::deriveSeed(seed, c). */
    std::uint64_t seed = 42;
    /**
     * core::modelConfigFingerprint() at authoring time; empty means
     * "fill in at execution". Shards refuse to merge across different
     * fingerprints, and stale plans are rejected instead of silently
     * producing different numbers.
     */
    std::string fingerprint;
    /** Domain-specific parameters, opaque to the engine. */
    config::JsonValue config;
    /**
     * What Domain::prepare() resolved from `config` and `seed` (the
     * fleet domain's parsed setup), shared by the plan's evaluator
     * and summary so a process builds it once. Not serialized: a plan
     * read back from a partial has none, and its domain resolves the
     * config again. Prepare again after editing `config` or `seed`.
     */
    std::shared_ptr<const void> prepared;
};

/**
 * The deterministic chunk layout of @p plan:
 * util::staticChunks(0, items, grain), whose automatic grain depends
 * only on the item count. Every shard of a plan computes this
 * identically, whatever its thread count.
 */
std::vector<util::IndexRange> planChunks(const SweepPlan &plan);

config::JsonValue toJson(const SweepPlan &plan);

/** Parse a plan; `domain` is required, everything else defaults.
 *  Throws config::JsonTypeError naming a bad field. */
SweepPlan sweepPlanFromJson(const config::JsonValue &value);

/**
 * A deterministic slice of a plan's chunks: shard i of N owns the
 * contiguous chunk range [floor(C*i/N), floor(C*(i+1)/N)).
 */
struct ShardSpec
{
    std::size_t shard_count = 1;
    std::size_t shard_index = 0;
};

/** Fatal unless 1 <= shard_count and shard_index < shard_count. */
void validateShard(const ShardSpec &shard);

/** Global chunk range owned by @p shard out of @p chunk_count. */
util::IndexRange shardChunkRange(std::size_t chunk_count,
                                 const ShardSpec &shard);

} // namespace act::sweep

#endif // ACT_SWEEP_PLAN_H

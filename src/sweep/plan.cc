#include "sweep/plan.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <system_error>
#include <utility>

#include "util/logging.h"

namespace act::sweep {

using config::JsonObject;
using config::JsonValue;

std::vector<util::IndexRange>
planChunks(const SweepPlan &plan)
{
    // staticChunks' automatic grain is a function of the range size
    // only, so the layout is reproducible across shards and hosts.
    return util::staticChunks(0, plan.items, plan.grain);
}

namespace {

/**
 * Seeds are 64-bit but JSON numbers are doubles, exact only up to
 * 2^53. Integral seeds in that range serialize as numbers; larger
 * ones as decimal strings, and the parser accepts both.
 */
JsonValue
seedToJson(std::uint64_t seed)
{
    constexpr std::uint64_t kExactDoubleMax = 1ull << 53;
    if (seed <= kExactDoubleMax)
        return JsonValue(static_cast<double>(seed));
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%" PRIu64, seed);
    return JsonValue(std::string(buffer));
}

/** A number seed is a count; a string seed is the whole decimal
 *  spelling of a uint64, with no sign, space or trailing text. */
std::uint64_t
seedFromJson(const JsonValue &plan)
{
    const JsonValue &value = plan.at("seed");
    if (!value.isString())
        return config::count(plan, "seed");
    const std::string &text = value.asString();
    std::uint64_t seed = 0;
    const auto [end, error] =
        std::from_chars(text.data(), text.data() + text.size(), seed);
    if (error != std::errc() || end != text.data() + text.size())
        config::badField("seed", "an unsigned 64-bit integer", value);
    return seed;
}

} // namespace

JsonValue
toJson(const SweepPlan &plan)
{
    JsonObject object;
    object["domain"] = JsonValue(plan.domain);
    object["items"] = JsonValue(static_cast<double>(plan.items));
    object["grain"] = JsonValue(static_cast<double>(plan.grain));
    object["seed"] = seedToJson(plan.seed);
    object["fingerprint"] = JsonValue(plan.fingerprint);
    object["config"] = plan.config;
    return JsonValue(std::move(object));
}

SweepPlan
sweepPlanFromJson(const JsonValue &value)
{
    SweepPlan plan;
    plan.domain = value.at("domain").asString();
    if (plan.domain.empty())
        config::badField("domain", "a domain name", value.at("domain"));
    plan.items =
        config::count(value, "items", plan.items, {0, kMaxSweepItems});
    plan.grain = config::count(value, "grain", plan.grain);
    if (value.contains("seed"))
        plan.seed = seedFromJson(value);
    plan.fingerprint = value.stringOr("fingerprint", "");
    if (value.contains("config"))
        plan.config = value.at("config");
    return plan;
}

void
validateShard(const ShardSpec &shard)
{
    if (shard.shard_count < 1)
        util::fatal("shard count must be at least 1, got ",
                    shard.shard_count);
    if (shard.shard_index >= shard.shard_count)
        util::fatal("shard index ", shard.shard_index,
                    " out of range for ", shard.shard_count, " shards");
}

util::IndexRange
shardChunkRange(std::size_t chunk_count, const ShardSpec &shard)
{
    validateShard(shard);
    // Contiguous slices: shard i of N owns [floor(C*i/N),
    // floor(C*(i+1)/N)), which partitions the chunks exactly. C*i is
    // exact in 128 bits; in size_t it wraps once C*i passes 2^64.
    const auto bound = [&](std::size_t index) {
        return static_cast<std::size_t>(
            static_cast<unsigned __int128>(chunk_count) * index /
            shard.shard_count);
    };
    return {bound(shard.shard_index), bound(shard.shard_index + 1)};
}

} // namespace act::sweep

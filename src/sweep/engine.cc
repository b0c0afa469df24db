#include "sweep/engine.h"

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "obs/heartbeat.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace act::sweep {

using config::JsonArray;
using config::JsonObject;
using config::JsonValue;

namespace {

constexpr const char *kPartialFormat = "act.sweep.partial.v2";
constexpr const char *kResultFormat = "act.sweep.result.v1";

struct SweepInstruments
{
    util::Counter &runs =
        util::MetricsRegistry::instance().counter("sweep.runs");
    util::Counter &items =
        util::MetricsRegistry::instance().counter("sweep.items");
    util::Counter &chunks =
        util::MetricsRegistry::instance().counter("sweep.chunks");
};

SweepInstruments &
sweepInstruments()
{
    static SweepInstruments *instruments = new SweepInstruments;
    return *instruments;
}

/** Per-run heartbeat state: shared counters plus the gated writer. */
struct HeartbeatState
{
    obs::HeartbeatWriter writer;
    obs::Heartbeat base;
    std::atomic<std::uint64_t> items_done{0};
    std::atomic<std::size_t> chunks_done{0};

    HeartbeatState(const ShardRunOptions &options,
                   obs::Heartbeat base_in)
        : writer(options.heartbeat_path, options.heartbeat_interval_s),
          base(std::move(base_in))
    {}

    void
    publish(bool force, bool done)
    {
        obs::Heartbeat heartbeat = base;
        heartbeat.items_done =
            items_done.load(std::memory_order_relaxed);
        heartbeat.chunks_done =
            chunks_done.load(std::memory_order_relaxed);
        heartbeat.update_wall_s = obs::wallClockSeconds();
        const double elapsed =
            heartbeat.update_wall_s - heartbeat.start_wall_s;
        heartbeat.items_per_sec =
            elapsed > 0.0
                ? static_cast<double>(heartbeat.items_done) / elapsed
                : 0.0;
        heartbeat.rss_mb = obs::processRssMb();
        heartbeat.done = done;
        writer.beat(heartbeat, force);
    }
};

/**
 * The chunk loop of both execution paths: evaluate @p chunks, the
 * plan's global chunks from @p chunk_offset on, with util::runChunks
 * and with the sweep's trace span and metrics counters. Each chunk's RNG
 * is seeded from its *global* index, so a shard samples exactly what
 * the full run would. Each finished chunk is published to
 * @p heartbeat when there is one. Returns the payloads in chunk
 * order.
 */
JsonArray
evaluateChunks(const SweepPlan &plan,
               const std::vector<util::IndexRange> &chunks,
               std::size_t chunk_offset,
               const JsonChunkEvaluator &evaluator,
               HeartbeatState *heartbeat)
{
    util::TraceSpan span("sweep", plan.domain);
    SweepInstruments &instruments = sweepInstruments();
    instruments.runs.add();
    instruments.chunks.add(chunks.size());
    for (const util::IndexRange &chunk : chunks)
        instruments.items.add(chunk.size());
    JsonArray payloads(chunks.size());
    util::runChunks(
        chunks, [&](std::size_t local, util::IndexRange range) {
            const std::size_t chunk = chunk_offset + local;
            util::Xorshift64Star rng(util::deriveSeed(plan.seed, chunk));
            payloads[local] = evaluator(chunk, range, rng);
            if (heartbeat != nullptr) {
                heartbeat->items_done.fetch_add(
                    range.size(), std::memory_order_relaxed);
                heartbeat->chunks_done.fetch_add(
                    1, std::memory_order_relaxed);
                heartbeat->publish(/*force=*/false, /*done=*/false);
            }
        });
    return payloads;
}

} // namespace

ShardResult
runShardedSweep(const SweepPlan &plan, const ShardSpec &shard,
                const JsonChunkEvaluator &evaluator,
                const ShardRunOptions &options)
{
    if (plan.items == 0)
        util::fatal("sweep plan '", plan.domain, "' has no items");
    const std::vector<util::IndexRange> chunks = planChunks(plan);
    const util::IndexRange owned =
        shardChunkRange(chunks.size(), shard);

    ShardResult result;
    result.plan = plan;
    result.shard = shard;
    result.chunk_begin = owned.begin;

    const std::vector<util::IndexRange> owned_chunks(
        chunks.begin() + static_cast<std::ptrdiff_t>(owned.begin),
        chunks.begin() + static_cast<std::ptrdiff_t>(owned.end));

    std::unique_ptr<HeartbeatState> heartbeat;
    if (!options.heartbeat_path.empty()) {
        obs::Heartbeat base;
        base.domain = plan.domain;
        base.shard_index = shard.shard_index;
        base.shard_count = shard.shard_count;
        for (const util::IndexRange &chunk : owned_chunks)
            base.items_total += chunk.size();
        base.chunks_total = owned_chunks.size();
        base.start_wall_s = obs::wallClockSeconds();
        heartbeat =
            std::make_unique<HeartbeatState>(options, std::move(base));
        heartbeat->publish(/*force=*/true, /*done=*/false);
    }

    result.chunks = evaluateChunks(plan, owned_chunks, owned.begin,
                                   evaluator, heartbeat.get());
    if (heartbeat != nullptr)
        heartbeat->publish(/*force=*/true, /*done=*/true);
    return result;
}

namespace {

/** The key of a packed number array: {"f64": "<hex>"}. */
constexpr const char *kPackedKey = "f64";
constexpr std::size_t kHexPerNumber = 16;

/** True when @p object is a packed number array. */
bool
isPacked(const JsonObject &object)
{
    return object.size() == 1 && object.begin()->first == kPackedKey;
}

/** True for a non-empty array whose elements are all numbers. */
bool
isNumberArray(const JsonArray &array)
{
    if (array.empty())
        return false;
    for (const JsonValue &element : array) {
        if (!element.isNumber())
            return false;
    }
    return true;
}

/** 16 lowercase hex digits per element: its binary64 bit pattern as
 *  a uint64_t, most significant digit first. */
std::string
packNumbers(const JsonArray &array)
{
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string hex(array.size() * kHexPerNumber, '0');
    char *out = hex.data();
    for (const JsonValue &element : array) {
        const auto bits = std::bit_cast<std::uint64_t>(element.asNumber());
        for (int shift = 60; shift >= 0; shift -= 4)
            *out++ = kDigits[(bits >> shift) & 0xf];
    }
    return hex;
}

/** @p payload with every non-empty all-number array packed. */
JsonValue
pack(const JsonValue &payload)
{
    if (payload.isArray()) {
        const JsonArray &array = payload.asArray();
        if (isNumberArray(array)) {
            JsonObject packed;
            packed[kPackedKey] = JsonValue(packNumbers(array));
            return JsonValue(std::move(packed));
        }
        JsonArray out;
        out.reserve(array.size());
        for (const JsonValue &element : array)
            out.push_back(pack(element));
        return JsonValue(std::move(out));
    }
    if (payload.isObject()) {
        const JsonObject &object = payload.asObject();
        if (isPacked(object))
            util::panic("a sweep payload object has the reserved sole key '",
                        kPackedKey, "'");
        JsonObject out;
        for (const auto &[key, value] : object)
            out.emplace_hint(out.end(), key, pack(value));
        return JsonValue(std::move(out));
    }
    return payload;
}

/** Each byte's hex digit value; 0xff for a byte outside [0-9a-f]. */
constexpr std::array<std::uint8_t, 256> kHexValues = [] {
    std::array<std::uint8_t, 256> values{};
    values.fill(0xff);
    for (int digit = 0; digit < 10; ++digit)
        values['0' + digit] = static_cast<std::uint8_t>(digit);
    for (int digit = 0; digit < 6; ++digit)
        values['a' + digit] = static_cast<std::uint8_t>(10 + digit);
    return values;
}();

/** The numbers of a packed array's @p hex value; throws naming the
 *  first element that is not 16 hex digits of a finite number. */
JsonArray
unpackNumbers(const JsonValue &hex_value)
{
    if (!hex_value.isString() || hex_value.asString().empty()) {
        config::badField(kPackedKey,
                         "a non-empty string of 16 hex digits per number",
                         hex_value);
    }
    const std::string_view hex = hex_value.asString();
    const std::size_t count =
        (hex.size() + kHexPerNumber - 1) / kHexPerNumber;
    JsonArray out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::string_view digits =
            hex.substr(i * kHexPerNumber, kHexPerNumber);
        std::uint64_t bits = 0;
        // Any invalid byte sets the high nibble of `invalid`.
        unsigned invalid = digits.size() == kHexPerNumber ? 0 : 0xf0;
        for (const char c : digits) {
            const std::uint8_t value =
                kHexValues[static_cast<unsigned char>(c)];
            invalid |= value;
            bits = bits << 4 | (value & 0xf);
        }
        const double number = std::bit_cast<double>(bits);
        if ((invalid & 0xf0) != 0 || !std::isfinite(number)) {
            config::badField(std::string(kPackedKey) + "[" +
                                 std::to_string(i) + "]",
                             "16 hex digits of a finite number",
                             JsonValue(std::string(digits)));
        }
        out.emplace_back(number);
    }
    return out;
}

/** pack()'s inverse: @p payload with every packed array restored. */
JsonValue
unpack(const JsonValue &payload)
{
    if (payload.isArray()) {
        const JsonArray &array = payload.asArray();
        JsonArray out;
        out.reserve(array.size());
        for (const JsonValue &element : array)
            out.push_back(unpack(element));
        return JsonValue(std::move(out));
    }
    if (payload.isObject()) {
        const JsonObject &object = payload.asObject();
        if (isPacked(object))
            return JsonValue(unpackNumbers(object.begin()->second));
        JsonObject out;
        for (const auto &[key, value] : object)
            out.emplace_hint(out.end(), key, unpack(value));
        return JsonValue(std::move(out));
    }
    return payload;
}

} // namespace

JsonValue
toJson(const ShardResult &result)
{
    JsonArray chunks;
    chunks.reserve(result.chunks.size());
    for (const JsonValue &payload : result.chunks)
        chunks.push_back(pack(payload));
    JsonObject object;
    object["format"] = JsonValue(kPartialFormat);
    object["plan"] = toJson(result.plan);
    object["shard_count"] =
        JsonValue(static_cast<double>(result.shard.shard_count));
    object["shard_index"] =
        JsonValue(static_cast<double>(result.shard.shard_index));
    object["chunk_begin"] =
        JsonValue(static_cast<double>(result.chunk_begin));
    object["chunks"] = JsonValue(std::move(chunks));
    if (!result.metrics.isNull())
        object["metrics"] = result.metrics;
    return JsonValue(std::move(object));
}

ShardResult
shardResultFromJson(const JsonValue &value)
{
    constexpr config::Choice<bool> kFormats[] = {{kPartialFormat, true}};
    config::choice(value, "format", kFormats);
    ShardResult result;
    result.plan = config::inContext(
        [&] { return sweepPlanFromJson(value.at("plan")); }, "plan");
    result.shard.shard_count =
        config::count(value, "shard_count", {1, config::kMaxCount});
    result.shard.shard_index = config::count(
        value, "shard_index", {0, result.shard.shard_count - 1});
    result.chunk_begin = config::count(value, "chunk_begin");
    const JsonArray &chunks = value.at("chunks").asArray();
    result.chunks.reserve(chunks.size());
    for (const JsonValue &payload : chunks) {
        result.chunks.push_back(config::inContext(
            [&] { return unpack(payload); }, "chunk ",
            result.chunk_begin + result.chunks.size()));
    }
    if (value.contains("metrics"))
        result.metrics = value.at("metrics");
    return result;
}

namespace {

/** The canonical result document both execution paths emit. */
JsonValue
resultDocument(const SweepPlan &plan, JsonArray payloads)
{
    JsonObject object;
    object["format"] = JsonValue(kResultFormat);
    object["plan"] = toJson(plan);
    object["results"] = JsonValue(std::move(payloads));
    return JsonValue(std::move(object));
}

} // namespace

JsonValue
mergeShards(std::vector<ShardResult> shards)
{
    if (shards.empty())
        util::fatal("mergeShards() needs at least one partial");

    const SweepPlan &plan = shards.front().plan;
    const std::string plan_dump = toJson(plan).dump();
    const std::size_t shard_count = shards.front().shard.shard_count;
    const std::size_t chunk_count = planChunks(plan).size();

    if (shards.size() != shard_count) {
        util::fatal("merge expects ", shard_count, " partials (from "
                    "--shards ", shard_count, "), got ", shards.size());
    }

    std::vector<ShardResult *> by_index(shard_count, nullptr);
    for (ShardResult &shard : shards) {
        if (toJson(shard.plan).dump() != plan_dump) {
            util::fatal("cannot merge partials from different sweep "
                        "plans (domain/items/grain/seed/fingerprint "
                        "must all match)");
        }
        if (shard.shard.shard_count != shard_count)
            util::fatal("cannot merge partials with different shard "
                        "counts (", shard.shard.shard_count, " vs ",
                        shard_count, ")");
        const std::size_t index = shard.shard.shard_index;
        if (by_index[index] != nullptr)
            util::fatal("duplicate partial for shard ", index,
                        " -- refusing to merge overlapping results");
        by_index[index] = &shard;
    }

    JsonArray payloads;
    payloads.reserve(chunk_count);
    std::size_t next_chunk = 0;
    for (std::size_t index = 0; index < shard_count; ++index) {
        ShardResult &shard = *by_index[index];
        const util::IndexRange owned =
            shardChunkRange(chunk_count, shard.shard);
        if (shard.chunk_begin != owned.begin ||
            shard.chunks.size() != owned.size()) {
            util::fatal("partial for shard ", index, " covers chunks [",
                        shard.chunk_begin, ", ",
                        shard.chunk_begin + shard.chunks.size(),
                        ") but the plan assigns [", owned.begin, ", ",
                        owned.end, ")");
        }
        if (owned.begin != next_chunk)
            util::panic("shard chunk ranges do not tile the sweep");
        next_chunk = owned.end;
        payloads.insert(payloads.end(),
                        std::make_move_iterator(shard.chunks.begin()),
                        std::make_move_iterator(shard.chunks.end()));
    }
    if (next_chunk != chunk_count)
        util::panic("merged shards cover ", next_chunk, " of ",
                    chunk_count, " chunks");
    return resultDocument(plan, std::move(payloads));
}

JsonValue
fullSweepResult(const SweepPlan &plan,
                const JsonChunkEvaluator &evaluator)
{
    if (plan.items == 0)
        util::fatal("sweep plan '", plan.domain, "' has no items");
    return resultDocument(plan, evaluateChunks(plan, planChunks(plan), 0,
                                               evaluator, nullptr));
}

} // namespace act::sweep

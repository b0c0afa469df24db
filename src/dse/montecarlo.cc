#include "dse/montecarlo.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <utility>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace act::dse {

namespace {

util::Counter &g_runs =
    util::MetricsRegistry::instance().counter("dse.montecarlo.runs");
util::Counter &g_samples = util::MetricsRegistry::instance().counter(
    "dse.montecarlo.samples");

/**
 * Per-parameter sampling constants hoisted out of the chunk loop: the
 * parameter's value at a unit draw u, low + (high - low) * u for a
 * uniform, and the triangular inverse CDF with mode c in [a, b],
 * a + sqrt(u * (b - a) * (c - a)) below the pivot (c - a) / (b - a)
 * and b - sqrt((1 - u) * (b - a) * (b - c)) above it. `u * ba * ca`
 * associates as `(u * ba) * ca`, so the precomputed differences give
 * those expressions' exact bits.
 */
struct ColumnSampler
{
    Distribution distribution = Distribution::Uniform;
    double a = 0.0;
    double b = 0.0;
    double ba = 0.0;    ///< b - a
    double ca = 0.0;    ///< c - a (triangular only)
    double bc = 0.0;    ///< b - c (triangular only)
    double pivot = 0.0; ///< (c - a) / (b - a) (triangular only)

    ColumnSampler() = default;
    explicit ColumnSampler(const UncertainParameter &parameter)
        : distribution(parameter.distribution), a(parameter.low),
          b(parameter.high), ba(parameter.high - parameter.low)
    {
        if (distribution == Distribution::Triangular) {
            ca = parameter.baseline - parameter.low;
            bc = parameter.high - parameter.baseline;
            pivot = ca / ba;
        }
    }

    /** The parameter's value at unit draw @p u. */
    double
    operator()(double u) const
    {
        if (distribution == Distribution::Uniform)
            return a + ba * u;
        if (u < pivot)
            return a + std::sqrt(u * ba * ca);
        return b - std::sqrt((1.0 - u) * ba * bc);
    }
};

/** The compiled samplers of a sweep, on the stack for the usual
 *  handful of Eq. 5 inputs. */
class SamplerSet
{
  public:
    explicit SamplerSet(
        const std::vector<UncertainParameter> &parameters)
        : samplers_(stack_.data())
    {
        if (parameters.size() > stack_.size()) {
            heap_.resize(parameters.size());
            samplers_ = heap_.data();
        }
        for (std::size_t i = 0; i < parameters.size(); ++i)
            samplers_[i] = ColumnSampler(parameters[i]);
    }

    const ColumnSampler &
    operator[](std::size_t i) const
    {
        return samplers_[i];
    }

  private:
    std::array<ColumnSampler, 8> stack_;
    std::vector<ColumnSampler> heap_;
    ColumnSampler *samplers_;
};

/**
 * Samples per fused sub-block: small enough that the SoA columns and
 * the output slice of a typical-width sweep stay L1-resident between
 * the sampling and evaluate passes.
 */
constexpr std::size_t kFusedBlockSamples = 512;

constexpr std::uint64_t kSignBit = 0x8000000000000000ULL;

/**
 * Map a finite double to a uint64 whose unsigned order is the value
 * order (sign-magnitude to biased): positives set the sign bit,
 * negatives complement. The only refinement over operator< is that
 * -0.0 orders strictly before +0.0 (operator< calls them equal), so
 * for any multiset without a mixed-zero tie at a selected rank, the
 * k-th key is the k-th order statistic's exact bits.
 */
inline std::uint64_t
orderedKey(double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return (bits & kSignBit) ? ~bits : (bits | kSignBit);
}

/** Inverse of orderedKey(). */
inline double
orderedValue(std::uint64_t key)
{
    const std::uint64_t bits =
        (key & kSignBit) ? (key ^ kSignBit) : ~key;
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

constexpr int kRadixBits = 11;
constexpr std::size_t kRadixBuckets = std::size_t{1} << kRadixBits;
/** Buckets at or below this size are sorted outright. */
constexpr std::size_t kRadixSortThreshold = 2048;
/** finalizeMonteCarlo() asks for min, max, and three lo/hi rank
 *  pairs; resolveRanks() sizes its per-level scratch for that. */
constexpr std::size_t kMaxOrderStats = 8;

struct OrderStatQuery
{
    std::size_t rank; ///< in: global rank; rewritten while recursing
    double value;     ///< out: the rank-th smallest value
};

/**
 * Answer every query's order statistic over @p keys. MSD radix
 * bucketing, kRadixBits per level: histogram the current digit,
 * localize each rank into its bucket, gather only the buckets a
 * query landed in (one pass for all of them), recurse. Buckets that
 * go below the threshold are sorted outright. Heavily duplicated
 * inputs collapse into one bucket per level, which recurses in place
 * without copying; after the digit at shift 0 all keys in a bucket
 * are identical, so the shift < 0 base case is a plain index.
 *
 * Queries must be sorted by rank, with every rank < keys.size().
 * Destroys @p keys. Linear work per level, at most six levels, and
 * in practice (spread data, few queries) ~2 passes over the input --
 * against ~6 partitioning passes for successive std::nth_element
 * calls on the same ranks. The caller may pass the first level's
 * digit histogram (counted while building the keys) to skip one
 * full pass.
 */
void
resolveRanks(std::vector<std::uint64_t> &keys, OrderStatQuery *queries,
             std::size_t query_count, int shift,
             const std::uint32_t *precomputed_counts = nullptr)
{
    while (true) {
        if (query_count == 0)
            return;
        if (keys.size() <= kRadixSortThreshold || shift < 0) {
            std::sort(keys.begin(), keys.end());
            for (std::size_t i = 0; i < query_count; ++i)
                queries[i].value = orderedValue(keys[queries[i].rank]);
            return;
        }
        const std::size_t mask = kRadixBuckets - 1;
        std::uint32_t local_counts[kRadixBuckets];
        const std::uint32_t *counts = precomputed_counts;
        if (counts == nullptr) {
            std::memset(local_counts, 0, sizeof(local_counts));
            for (const std::uint64_t key : keys)
                ++local_counts[(key >> shift) & mask];
            counts = local_counts;
        }
        precomputed_counts = nullptr;
        const int next_shift =
            (shift == 0) ? -1
                         : (shift > kRadixBits ? shift - kRadixBits : 0);

        // Localize each query into its bucket, in one rank-ordered
        // walk across the histogram.
        struct Group
        {
            std::size_t bucket;
            OrderStatQuery *queries;
            std::size_t count;
        };
        Group groups[kMaxOrderStats];
        std::size_t group_count = 0;
        std::size_t cumulative = 0;
        std::size_t qi = 0;
        for (std::size_t b = 0; b < kRadixBuckets && qi < query_count;
             ++b) {
            const std::size_t size = counts[b];
            if (size == 0)
                continue;
            const std::size_t begin = qi;
            while (qi < query_count &&
                   queries[qi].rank < cumulative + size) {
                queries[qi].rank -= cumulative;
                ++qi;
            }
            if (qi > begin)
                groups[group_count++] = {b, queries + begin,
                                         qi - begin};
            cumulative += size;
        }

        if (group_count == 1 &&
            counts[groups[0].bucket] == keys.size()) {
            // Every key shares this digit: refine in place.
            queries = groups[0].queries;
            query_count = groups[0].count;
            shift = next_shift;
            continue;
        }

        // One gather pass for all buckets any query needs.
        std::int16_t bucket_group[kRadixBuckets];
        std::memset(bucket_group, -1, sizeof(bucket_group));
        std::vector<std::uint64_t> gathered[kMaxOrderStats];
        for (std::size_t g = 0; g < group_count; ++g) {
            bucket_group[groups[g].bucket] =
                static_cast<std::int16_t>(g);
            gathered[g].reserve(counts[groups[g].bucket]);
        }
        for (const std::uint64_t key : keys) {
            const std::int16_t g = bucket_group[(key >> shift) & mask];
            if (g >= 0)
                gathered[g].push_back(key);
        }
        for (std::size_t g = 0; g < group_count; ++g) {
            resolveRanks(gathered[g], groups[g].queries,
                         groups[g].count, next_shift);
        }
        return;
    }
}

} // namespace

void
validateMonteCarloInputs(
    const std::vector<UncertainParameter> &parameters,
    std::size_t samples)
{
    if (parameters.empty())
        util::fatal("monteCarlo() needs at least one parameter");
    if (samples < 100)
        util::fatal("monteCarlo() needs at least 100 samples");
    for (const auto &parameter : parameters) {
        if (!(parameter.low <= parameter.baseline &&
              parameter.baseline <= parameter.high)) {
            util::fatal("parameter '", parameter.name,
                        "' needs low <= baseline <= high");
        }
        if (parameter.low >= parameter.high)
            util::fatal("parameter '", parameter.name,
                        "' has an empty range");
    }
}

MonteCarloPartial
monteCarloChunk(const std::vector<UncertainParameter> &parameters,
                const std::function<double(const std::vector<double> &)>
                    &model,
                util::IndexRange range, util::Xorshift64Star &rng)
{
    const SamplerSet samplers(parameters);
    std::vector<double> values(parameters.size());
    MonteCarloPartial partial;
    partial.outputs.reserve(range.size());
    for (std::size_t s = range.begin; s < range.end; ++s) {
        for (std::size_t i = 0; i < parameters.size(); ++i)
            values[i] = samplers[i](rng.nextUnit());
        const double output = model(values);
        partial.outputs.push_back(output);
        partial.sum += output;
        partial.sum_squares += output * output;
    }
    return partial;
}

MonteCarloPartial
mergePartial(MonteCarloPartial accumulator, MonteCarloPartial part)
{
    accumulator.outputs.insert(accumulator.outputs.end(),
                               part.outputs.begin(),
                               part.outputs.end());
    accumulator.sum += part.sum;
    accumulator.sum_squares += part.sum_squares;
    return accumulator;
}

MonteCarloResult
finalizeMonteCarlo(std::size_t samples, MonteCarloPartial merged)
{
    TRACE_SPAN("dse.montecarlo", "finalize");
    if (merged.outputs.size() != samples) {
        util::panic("Monte Carlo merge produced ",
                    merged.outputs.size(), " outputs for a ", samples,
                    "-sample sweep");
    }
    std::vector<double> outputs = std::move(merged.outputs);

    // All eight order statistics (min, max, and the three percentile
    // lo/hi pairs) come from one multi-rank radix selection over
    // order-preserving integer keys -- ~2 passes over the data where
    // successive nth_element calls cost ~6 partitioning passes. The
    // k-th key maps back to the sorted array's exact outputs[k] bits
    // (orderedKey() only refines operator< at a -0.0/+0.0 tie), and
    // the interpolation expression is unchanged, so every statistic
    // keeps its previous bits.
    struct Rank
    {
        std::size_t lo;
        std::size_t hi;
        double t;
    };
    const auto rankOf = [&outputs](double p) {
        const double index =
            p * static_cast<double>(outputs.size() - 1);
        const std::size_t lo = static_cast<std::size_t>(index);
        const std::size_t hi = std::min(lo + 1, outputs.size() - 1);
        const double t = index - static_cast<double>(lo);
        return Rank{lo, hi, t};
    };
    const Rank ranks[3] = {rankOf(0.05), rankOf(0.50), rankOf(0.95)};

    std::vector<std::size_t> needed = {0, outputs.size() - 1};
    for (const Rank &rank : ranks) {
        needed.push_back(rank.lo);
        needed.push_back(rank.hi);
    }
    std::sort(needed.begin(), needed.end());
    needed.erase(std::unique(needed.begin(), needed.end()),
                 needed.end());

    // The key-build pass histograms the top TWO radix digits at once.
    // CPA outputs share sign and (usually) exponent, so the top digit
    // -- sign plus high exponent bits -- almost always lands in one
    // bucket; when it does, selection starts one level down with its
    // histogram already in hand, skipping a full pass over the keys.
    std::vector<std::uint64_t> keys(outputs.size());
    constexpr int kTopShift = 64 - kRadixBits;
    constexpr int kSecondShift = kTopShift - kRadixBits;
    std::uint32_t top_counts[kRadixBuckets] = {};
    std::uint32_t second_counts[kRadixBuckets] = {};
    for (std::size_t i = 0; i < outputs.size(); ++i) {
        const std::uint64_t key = orderedKey(outputs[i]);
        keys[i] = key;
        ++top_counts[key >> kTopShift];
        ++second_counts[(key >> kSecondShift) &
                        (kRadixBuckets - 1)];
    }
    const std::uint64_t first_top = keys.empty()
                                        ? 0
                                        : keys.front() >> kTopShift;
    const bool top_degenerate =
        top_counts[first_top] == keys.size();

    OrderStatQuery queries[kMaxOrderStats];
    for (std::size_t r = 0; r < needed.size(); ++r)
        queries[r] = {needed[r], 0.0};
    if (top_degenerate) {
        resolveRanks(keys, queries, needed.size(), kSecondShift,
                     second_counts);
    } else {
        resolveRanks(keys, queries, needed.size(), kTopShift,
                     top_counts);
    }

    const auto orderStat = [&](std::size_t k) {
        const auto it =
            std::lower_bound(needed.begin(), needed.end(), k);
        return queries[static_cast<std::size_t>(it - needed.begin())]
            .value;
    };
    const double min_value = orderStat(0);
    const double max_value = orderStat(outputs.size() - 1);
    const auto percentile = [&](const Rank &rank) {
        return orderStat(rank.lo) * (1.0 - rank.t) +
               orderStat(rank.hi) * rank.t;
    };

    MonteCarloResult result;
    result.samples = samples;
    result.mean = merged.sum / static_cast<double>(samples);
    const double variance =
        merged.sum_squares / static_cast<double>(samples) -
        result.mean * result.mean;
    result.stddev = std::sqrt(std::max(0.0, variance));
    result.p5 = percentile(ranks[0]);
    result.p50 = percentile(ranks[1]);
    result.p95 = percentile(ranks[2]);
    result.min = min_value;
    result.max = max_value;
    return result;
}

MonteCarloResult
monteCarlo(const std::vector<UncertainParameter> &parameters,
           const std::function<double(const std::vector<double> &)>
               &model,
           std::size_t samples, std::uint64_t seed)
{
    TRACE_SPAN("dse.montecarlo", "monteCarlo");
    g_runs.add();
    g_samples.add(samples);
    validateMonteCarloInputs(parameters, samples);

    // Chunk c draws from the stream deriveSeed(seed, c) and partials
    // fold in chunk order, so the statistics are a function of (seed,
    // samples) alone -- the layout the sharded domain uses too.
    MonteCarloPartial merged;
    merged.outputs.reserve(samples);
    const std::vector<util::IndexRange> chunks =
        util::staticChunks(0, samples, kMonteCarloChunk);
    for (std::size_t c = 0; c < chunks.size(); ++c) {
        util::Xorshift64Star rng(util::deriveSeed(seed, c));
        merged = mergePartial(
            std::move(merged),
            monteCarloChunk(parameters, model, chunks[c], rng));
    }
    return finalizeMonteCarlo(samples, std::move(merged));
}

void
MonteCarloScratch::prepare(std::size_t parameters, std::size_t samples)
{
    samples_ = samples;
    values_.resize(parameters * samples);
    columns_.resize(parameters);
    for (std::size_t i = 0; i < parameters; ++i)
        columns_[i] = values_.data() + i * samples;
}

MonteCarloPartial
monteCarloPlanChunk(const std::vector<UncertainParameter> &parameters,
                    const core::EvalPlan &plan, util::IndexRange range,
                    util::Xorshift64Star &rng,
                    MonteCarloScratch &scratch)
{
    const std::size_t count = range.size();
    const std::size_t width = parameters.size();
    // Block-sized scratch: each sub-block's columns and output slice
    // stay cache-hot between sampling and evaluation.
    const std::size_t block =
        std::min<std::size_t>(count, kFusedBlockSamples);
    scratch.prepare(width, block);
    const SamplerSet samplers(parameters);

    // Sample-major stream consumption, exactly like monteCarloChunk():
    // all of sample s's parameters before sample s+1's, through the
    // same samplers. Splitting the chunk into sub-blocks only changes
    // *when* each sample is evaluated, never which draw feeds which
    // (sample, parameter) -- so outputs are bit-identical to the
    // closure path.
    // evaluateBatch() runs its validation pass per sub-block, which
    // preserves first-failure semantics: validation order is sample
    // order, and a fatal() never returns.
    MonteCarloPartial partial;
    partial.outputs.resize(count);
    for (std::size_t offset = 0; offset < count; offset += block) {
        const std::size_t n = std::min(block, count - offset);
        for (std::size_t s = 0; s < n; ++s) {
            for (std::size_t i = 0; i < width; ++i)
                scratch.column(i)[s] = samplers[i](rng.nextUnit());
        }
        plan.evaluateBatch(n, scratch.columns(),
                           partial.outputs.data() + offset);
    }

    for (const double output : partial.outputs) {
        partial.sum += output;
        partial.sum_squares += output * output;
    }
    return partial;
}

} // namespace act::dse

#include "util/random.h"

#include "util/logging.h"

namespace act::util {

namespace {

/** SplitMix64 finalizer (Steele et al.): a strong 64-bit mixer. */
std::uint64_t
splitMix64Finalize(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
}

} // namespace

std::uint64_t
deriveSeed(std::uint64_t base, std::uint64_t stream)
{
    // Advance the base by the SplitMix64 gamma per stream index, then
    // finalize twice so adjacent streams share no low-bit structure.
    const std::uint64_t mixed =
        base + (stream + 1) * 0x9E3779B97F4A7C15ULL;
    return splitMix64Finalize(splitMix64Finalize(mixed));
}

void
Xorshift64Star::zeroBoundFatal()
{
    fatal("nextBelow() with a zero bound");
}

} // namespace act::util

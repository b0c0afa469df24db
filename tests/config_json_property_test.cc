/**
 * @file
 * Property tests for the JSON layer: randomly generated documents
 * round-trip through dump() and parse() structurally unchanged, every
 * number bit for bit, and saveJsonFile() streams exactly dump()'s text.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "config/json.h"
#include "util/random.h"

namespace act::config {
namespace {

/**
 * A finite double from raw 64-bit patterns: any exponent, subnormals
 * (exponent field 0), or one of the edge values (+-0, the extremes,
 * the integers around 1e15 where the writer changes format).
 */
double
randomBits(util::Xorshift64Star &rng)
{
    static const double kEdges[] = {
        0.0, -0.0, std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(), 1e15, -1e15,
        1e15 - 1.0, std::nextafter(1e15, 0.0), std::nextafter(1e15, 2e15)};
    constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
    constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
    const std::uint64_t bits = rng.next();
    switch (rng.nextBelow(3)) {
      case 0:
        return kEdges[rng.nextBelow(std::size(kEdges))];
      case 1:
        return std::bit_cast<double>(bits & (kSign | kMantissa));
      default: {
        // Inf and NaN (exponent field all ones) are not JSON; clearing
        // the exponent's top bit makes them finite.
        const double value = std::bit_cast<double>(bits);
        return std::isfinite(value)
                   ? value
                   : std::bit_cast<double>(bits & ~(std::uint64_t{1} << 62));
      }
    }
}

/** Generate a pseudo-random JSON value with bounded depth. */
JsonValue
randomValue(util::Xorshift64Star &rng, int depth)
{
    const std::uint64_t kind = rng.nextBelow(depth > 0 ? 6 : 4);
    switch (kind) {
      case 0:
        return JsonValue(nullptr);
      case 1:
        return JsonValue(rng.nextUnit() < 0.5);
      case 2: {
        // Mix integers, awkward reals and raw bit patterns.
        const double pick = rng.nextUnit();
        if (pick < 1.0 / 3.0) {
            return JsonValue(static_cast<double>(rng.nextBelow(1000)) -
                             500.0);
        }
        if (pick < 2.0 / 3.0)
            return JsonValue(rng.nextUniform(-1e6, 1e6));
        return JsonValue(randomBits(rng));
      }
      case 3: {
        std::string text;
        const std::uint64_t length = rng.nextBelow(12);
        for (std::uint64_t i = 0; i < length; ++i) {
            // Printable ASCII plus characters that need escaping.
            static const char kAlphabet[] =
                "abcXYZ 019_-\"\\\n\t{}[],:\x01\x1f";
            text += kAlphabet[rng.nextBelow(sizeof(kAlphabet) - 1)];
        }
        return JsonValue(std::move(text));
      }
      case 4: {
        JsonArray array;
        const std::uint64_t size = rng.nextBelow(4);
        for (std::uint64_t i = 0; i < size; ++i)
            array.push_back(randomValue(rng, depth - 1));
        return JsonValue(std::move(array));
      }
      default: {
        JsonObject object;
        const std::uint64_t size = rng.nextBelow(4);
        for (std::uint64_t i = 0; i < size; ++i) {
            object["k" + std::to_string(i) +
                   std::string(rng.nextBelow(2), '"')] =
                randomValue(rng, depth - 1);
        }
        return JsonValue(std::move(object));
      }
    }
}

/** Structural equality, numbers compared bit for bit (so -0 != 0). */
bool
structurallyEqual(const JsonValue &a, const JsonValue &b)
{
    if (a.isNull())
        return b.isNull();
    if (a.isBool())
        return b.isBool() && a.asBool() == b.asBool();
    if (a.isNumber())
        return b.isNumber() && std::bit_cast<std::uint64_t>(a.asNumber()) ==
                                   std::bit_cast<std::uint64_t>(b.asNumber());
    if (a.isString())
        return b.isString() && a.asString() == b.asString();
    if (a.isArray()) {
        if (!b.isArray() || a.asArray().size() != b.asArray().size())
            return false;
        for (std::size_t i = 0; i < a.asArray().size(); ++i) {
            if (!structurallyEqual(a.asArray()[i], b.asArray()[i]))
                return false;
        }
        return true;
    }
    if (!b.isObject() || a.asObject().size() != b.asObject().size())
        return false;
    auto it_a = a.asObject().begin();
    auto it_b = b.asObject().begin();
    for (; it_a != a.asObject().end(); ++it_a, ++it_b) {
        if (it_a->first != it_b->first ||
            !structurallyEqual(it_a->second, it_b->second)) {
            return false;
        }
    }
    return true;
}

class JsonRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonRoundTrip, DumpParseIsIdentity)
{
    util::Xorshift64Star rng(GetParam());
    for (int i = 0; i < 200; ++i) {
        const JsonValue original = randomValue(rng, 4);
        // Compact form.
        const JsonValue compact = JsonValue::parse(original.dump());
        EXPECT_TRUE(structurallyEqual(original, compact))
            << original.dump();
        // Pretty-printed form.
        const JsonValue pretty = JsonValue::parse(original.dump(2));
        EXPECT_TRUE(structurallyEqual(original, pretty))
            << original.dump(2);
        // Dump is a fixed point after one round trip.
        EXPECT_EQ(compact.dump(), original.dump());
    }
}

/** The block saveJsonFile() streams through. */
constexpr std::size_t kBlockBytes = 16384;

/** The bytes saveJsonFile() writes for @p value at @p indent. */
std::string
savedText(const JsonValue &value, int indent)
{
    const std::string path =
        ::testing::TempDir() + "/act_json_property_test.json";
    saveJsonFile(path, value, indent);
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

TEST_P(JsonRoundTrip, SavedFileIsDumpPlusNewline)
{
    util::Xorshift64Star rng(GetParam());
    std::vector<JsonValue> documents;
    // Below one block.
    for (int i = 0; i < 20; ++i)
        documents.push_back(randomValue(rng, 4));
    // One block exactly, one byte short and one byte over: as the
    // whole file, and as the first array element, after which the
    // writer flushes.
    for (int indent : {0, 2}) {
        const std::size_t open = indent > 0 ? 2 + indent : 1;
        const std::size_t close = indent > 0 ? 3 : 2;
        for (std::size_t pad : {kBlockBytes - 1, kBlockBytes,
                                kBlockBytes + 1}) {
            JsonArray whole(
                1, JsonValue(std::string(pad - open - close - 2, 'x')));
            JsonArray first(1, JsonValue(std::string(pad - open - 2, 'x')));
            first.push_back(randomValue(rng, 4));
            documents.emplace_back(std::move(whole));
            documents.emplace_back(std::move(first));
        }
    }
    // Many blocks, as one array and as one object, with a string
    // longer than a block in the middle.
    JsonArray array;
    JsonObject object;
    std::size_t bytes = 0;
    while (bytes < 6 * kBlockBytes) {
        JsonValue value = randomValue(rng, 4);
        bytes += value.dump().size();
        if (array.size() == 100)
            array.push_back(JsonValue(std::string(3 * kBlockBytes, '"')));
        object["m" + std::to_string(array.size())] = value;
        array.push_back(std::move(value));
    }
    object["long"] = JsonValue(std::string(2 * kBlockBytes + 7, '\\'));
    documents.push_back(JsonValue(std::move(array)));
    documents.push_back(JsonValue(std::move(object)));

    for (const JsonValue &document : documents) {
        for (int indent : {0, 2}) {
            const std::string text = document.dump(indent);
            ASSERT_EQ(savedText(document, indent), text + "\n")
                << "indent " << indent << ", " << text.size() << " bytes";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTrip,
                         ::testing::Values(1u, 17u, 99u, 2026u));

} // namespace
} // namespace act::config

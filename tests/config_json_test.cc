/** @file Unit tests for the JSON parser, accessors, and serializer. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "config/json.h"
#include "util/random.h"

namespace act::config {
namespace {

TEST(JsonParse, Scalars)
{
    EXPECT_TRUE(JsonValue::parse("null").isNull());
    EXPECT_TRUE(JsonValue::parse("true").asBool());
    EXPECT_FALSE(JsonValue::parse("false").asBool());
    EXPECT_DOUBLE_EQ(JsonValue::parse("3.25").asNumber(), 3.25);
    EXPECT_DOUBLE_EQ(JsonValue::parse("-17").asNumber(), -17.0);
    EXPECT_DOUBLE_EQ(JsonValue::parse("6.02e23").asNumber(), 6.02e23);
    EXPECT_DOUBLE_EQ(JsonValue::parse("1E-3").asNumber(), 1e-3);
    EXPECT_EQ(JsonValue::parse("\"hello\"").asString(), "hello");
}

TEST(JsonParse, StringEscapes)
{
    EXPECT_EQ(JsonValue::parse(R"("a\nb\tc")").asString(), "a\nb\tc");
    EXPECT_EQ(JsonValue::parse(R"("say \"hi\"")").asString(),
              "say \"hi\"");
    EXPECT_EQ(JsonValue::parse(R"("back\\slash")").asString(),
              "back\\slash");
    EXPECT_EQ(JsonValue::parse(R"("A")").asString(), "A");
    EXPECT_EQ(JsonValue::parse(R"("é")").asString(), "\xc3\xa9");
}

TEST(JsonParse, ArraysAndObjects)
{
    const JsonValue doc = JsonValue::parse(
        R"({"a": [1, 2, 3], "b": {"c": true}, "d": "x"})");
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("a").asArray().size(), 3u);
    EXPECT_DOUBLE_EQ(doc.at("a").asArray()[1].asNumber(), 2.0);
    EXPECT_TRUE(doc.at("b").at("c").asBool());
    EXPECT_EQ(doc.at("d").asString(), "x");
}

TEST(JsonParse, CommentsAndTrailingCommas)
{
    const JsonValue doc = JsonValue::parse(R"(
        {
            // the fab side
            "yield": 0.875,  // TSMC-like
            "nodes": [7, 10, 14,],
        }
    )");
    EXPECT_DOUBLE_EQ(doc.at("yield").asNumber(), 0.875);
    EXPECT_EQ(doc.at("nodes").asArray().size(), 3u);
}

TEST(JsonParse, EmptyContainers)
{
    EXPECT_TRUE(JsonValue::parse("[]").asArray().empty());
    EXPECT_TRUE(JsonValue::parse("{}").asObject().empty());
}

TEST(JsonParse, ErrorsCarryLocation)
{
    try {
        JsonValue::parse("{\n  \"a\": }");
        FAIL() << "expected JsonParseError";
    } catch (const JsonParseError &error) {
        EXPECT_EQ(error.line(), 2);
        EXPECT_GT(error.column(), 1);
    }
}

/** Parse @p text, which must fail, and return the error. */
JsonParseError
parseError(const std::string &text)
{
    try {
        JsonValue::parse(text);
    } catch (const JsonParseError &error) {
        return error;
    }
    ADD_FAILURE() << "expected JsonParseError for: " << text;
    return JsonParseError("no error", 0, 0);
}

TEST(JsonParse, ErrorAfterLineComment)
{
    const JsonParseError error =
        parseError("// header comment\n{\"a\": tru}");
    EXPECT_EQ(error.line(), 2);
    EXPECT_EQ(error.column(), 10);
    EXPECT_STREQ(error.what(),
                 "invalid literal, expected 'true' at line 2, column 10");

    const JsonParseError trailing = parseError(
        "{\n  // a comment\n  \"a\": 1 // trailing\n  \"b\": 2\n}");
    EXPECT_EQ(trailing.line(), 4);
    EXPECT_EQ(trailing.column(), 3);
}

TEST(JsonParse, ErrorInsideStringWithRawNewline)
{
    const JsonParseError escape =
        parseError("{\"a\": \"line one\nline two\\q\"}");
    EXPECT_EQ(escape.line(), 2);
    EXPECT_EQ(escape.column(), 11);
    EXPECT_STREQ(escape.what(),
                 "invalid escape sequence at line 2, column 11");

    const JsonParseError unterminated =
        parseError("{\"a\": \"line one\nline two");
    EXPECT_EQ(unterminated.line(), 2);
    EXPECT_EQ(unterminated.column(), 9);
}

TEST(JsonParse, ErrorOnLaterLines)
{
    const JsonParseError error =
        parseError("{\n  \"a\": 1,\n  \"b\": [1, 2,, 3]\n}");
    EXPECT_EQ(error.line(), 3);
    EXPECT_EQ(error.column(), 14);
    EXPECT_STREQ(error.what(), "unexpected character at line 3, column 14");

    const JsonParseError number = parseError(
        "{\n  \"a\": 1,\n  \"b\": {\n    \"c\": 1e400\n  }\n}");
    EXPECT_EQ(number.line(), 4);
    EXPECT_EQ(number.column(), 15);
    EXPECT_STREQ(number.what(),
                 "malformed number '1e400' at line 4, column 15");
}

TEST(JsonParse, ErrorAtEndOfInput)
{
    const JsonParseError error = parseError("{\n  \"a\": [1, 2");
    EXPECT_EQ(error.line(), 2);
    EXPECT_EQ(error.column(), 13);
    EXPECT_STREQ(error.what(), "expected ']' at line 2, column 13");

    const JsonParseError newline = parseError("{\n  \"a\": [1, 2\n");
    EXPECT_EQ(newline.line(), 3);
    EXPECT_EQ(newline.column(), 1);

    const JsonParseError empty = parseError("   ");
    EXPECT_EQ(empty.line(), 1);
    EXPECT_EQ(empty.column(), 4);
    EXPECT_STREQ(empty.what(), "unexpected end of input at line 1, column 4");
}

TEST(JsonParse, MalformedNumbersNameTheToken)
{
    EXPECT_STREQ(parseError("-").what(),
                 "malformed number '-' at line 1, column 2");
    EXPECT_STREQ(parseError("1e+").what(),
                 "malformed number '1e+' at line 1, column 4");
    EXPECT_STREQ(parseError("[-1e-400]").what(),
                 "malformed number '-1e-400' at line 1, column 9");
    EXPECT_STREQ(parseError("1.5.2").what(),
                 "trailing characters after JSON document at line 1, "
                 "column 4");
}

TEST(JsonParse, SubnormalsAreNumbers)
{
    EXPECT_EQ(JsonValue::parse("1e-310").asNumber(), 1e-310);
    EXPECT_EQ(JsonValue::parse("-4.9406564584124654e-324").asNumber(),
              -std::numeric_limits<double>::denorm_min());
}

TEST(JsonParse, RejectsMalformedInput)
{
    EXPECT_THROW(JsonValue::parse(""), JsonParseError);
    EXPECT_THROW(JsonValue::parse("{"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("[1 2]"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("tru"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("\"unterminated"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("1 trailing"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), JsonParseError);
    EXPECT_THROW(JsonValue::parse(R"("\q")"), JsonParseError);
}

TEST(JsonAccess, TypeErrorsThrow)
{
    const JsonValue doc = JsonValue::parse(R"({"n": 1.5})");
    EXPECT_THROW(doc.at("n").asString(), JsonTypeError);
    EXPECT_THROW(doc.at("n").asBool(), JsonTypeError);
    EXPECT_THROW(doc.at("missing"), JsonTypeError);
    EXPECT_THROW(doc.asArray(), JsonTypeError);
}

TEST(JsonAccess, DefaultingAccessors)
{
    const JsonValue doc = JsonValue::parse(
        R"({"x": 2.5, "n": 3, "flag": true, "name": "act"})");
    EXPECT_DOUBLE_EQ(number(doc, "x", 0.0), 2.5);
    EXPECT_DOUBLE_EQ(number(doc, "y", 9.0), 9.0);
    EXPECT_EQ(count(doc, "n", 7), 3u);
    EXPECT_EQ(count(doc, "m", 7), 7u);
    EXPECT_TRUE(doc.at("flag").asBool());
    EXPECT_FALSE(doc.contains("other"));
    EXPECT_EQ(doc.stringOr("name", ""), "act");
    EXPECT_EQ(doc.stringOr("nope", "dflt"), "dflt");
}

/** The JsonTypeError message @p read throws; "" when it returns. */
template <typename Read>
std::string
errorOf(Read read)
{
    try {
        read();
    } catch (const JsonTypeError &error) {
        return error.what();
    }
    return "";
}

TEST(JsonReaders, CountRejectsWhatACastWouldMangle)
{
    const JsonValue doc = JsonValue::parse(
        R"({"n": 3, "neg": -1, "frac": 2.5, "huge": 1e300, "text": "3"})");
    EXPECT_EQ(count(doc, "n"), 3u);
    EXPECT_EQ(errorOf([&] { count(doc, "neg"); }),
              "'neg' must be a non-negative integer (got -1)");
    EXPECT_EQ(errorOf([&] { count(doc, "frac"); }),
              "'frac' must be a non-negative integer (got 2.5)");
    EXPECT_EQ(errorOf([&] { count(doc, "huge"); }),
              "'huge' must be a non-negative integer (got 1e+300)");
    EXPECT_EQ(errorOf([&] { count(doc, "text"); }),
              "'text' must be a non-negative integer (got \"3\")");
    EXPECT_EQ(errorOf([&] { count(doc, "absent"); }), "missing 'absent'");
    EXPECT_EQ(count(doc, "absent", 7), 7u);
    // A default never hides a bad value.
    EXPECT_EQ(errorOf([&] { count(doc, "neg", 7); }),
              "'neg' must be a non-negative integer (got -1)");
}

TEST(JsonReaders, CountBoundsAreInclusive)
{
    const JsonValue doc = JsonValue::parse(
        R"({"lo": 1, "hi": 1024, "below": 0, "above": 1025})");
    EXPECT_EQ(count(doc, "lo", {1, 1024}), 1u);
    EXPECT_EQ(count(doc, "hi", {1, 1024}), 1024u);
    EXPECT_EQ(errorOf([&] { count(doc, "below", {1, 1024}); }),
              "'below' must be an integer in [1, 1024] (got 0)");
    EXPECT_EQ(errorOf([&] { count(doc, "above", {1, 1024}); }),
              "'above' must be an integer in [1, 1024] (got 1025)");
    EXPECT_EQ(errorOf([&] { count(doc, "below", {1, kMaxCount}); }),
              "'below' must be an integer >= 1 (got 0)");

    // The default range is [0, 2^63): its top converts exactly.
    JsonObject edges;
    edges["top"] = JsonValue(0x1p63 - 1024.0);
    edges["past"] = JsonValue(0x1p63);
    const JsonValue wide(std::move(edges));
    EXPECT_EQ(count(wide, "top"), (std::uint64_t{1} << 63) - 1024);
    EXPECT_EQ(errorOf([&] { count(wide, "past"); }),
              "'past' must be a non-negative integer "
              "(got 9223372036854775808)");
}

TEST(JsonReaders, NumberIntervalEnds)
{
    const JsonValue doc =
        JsonValue::parse(R"({"zero": 0, "one": 1, "text": "x"})");
    EXPECT_EQ(number(doc, "zero", atLeast(0.0)), 0.0);
    EXPECT_EQ(errorOf([&] { number(doc, "zero", above(0.0)); }),
              "'zero' must be a number > 0 (got 0)");
    EXPECT_EQ(number(doc, "zero", closed(0.0, 1.0)), 0.0);
    EXPECT_EQ(number(doc, "one", closed(0.0, 1.0)), 1.0);
    EXPECT_EQ(errorOf([&] { number(doc, "zero", {0.0, 1.0, true, false}); }),
              "'zero' must be a number in (0, 1] (got 0)");
    EXPECT_EQ(number(doc, "one", {0.0, 1.0, true, false}), 1.0);
    EXPECT_EQ(errorOf([&] { number(doc, "one", {0.0, 1.0, false, true}); }),
              "'one' must be a number in [0, 1) (got 1)");
    const Interval below_one(-std::numeric_limits<double>::infinity(), 1.0,
                             true, true);
    EXPECT_EQ(errorOf([&] { number(doc, "one", below_one); }),
              "'one' must be a number < 1 (got 1)");
    EXPECT_EQ(errorOf([&] { number(doc, "text"); }),
              "'text' must be a number (got \"x\")");
    EXPECT_EQ(errorOf([&] { number(doc, "absent"); }), "missing 'absent'");
    EXPECT_EQ(number(doc, "absent", 4.5), 4.5);

    // The default interval is every finite number.
    JsonObject infinite;
    infinite["inf"] = JsonValue(std::numeric_limits<double>::infinity());
    EXPECT_EQ(errorOf([&] { number(JsonValue(infinite), "inf"); }),
              "'inf' must be a number (got inf)");
}

TEST(JsonReaders, ArrayEntriesAreNamedByIndex)
{
    const JsonValue doc =
        JsonValue::parse(R"({"xs": [1, "x"], "cs": [0, -3], "s": 5})");
    EXPECT_EQ(errorOf([&] { numbers(doc, "xs"); }),
              "'xs[1]' must be a number (got \"x\")");
    EXPECT_EQ(errorOf([&] { numbers(doc, "xs", above(1.0)); }),
              "'xs[0]' must be a number > 1 (got 1)");
    EXPECT_EQ(errorOf([&] { counts(doc, "cs"); }),
              "'cs[1]' must be a non-negative integer (got -3)");
    EXPECT_EQ(errorOf([&] { numbers(doc, "s"); }),
              "'s' must be an array of numbers (got 5)");
    EXPECT_EQ(numbers(JsonValue::parse(R"({"xs": [1, 2.5]})"), "xs"),
              (std::vector<double>{1.0, 2.5}));
}

enum class Color
{
    Red,
    Blue,
};

constexpr Choice<Color> kColors[] = {
    {"red", Color::Red},
    {"blue", Color::Blue},
};

TEST(JsonReaders, ChoiceListsTheAllowedNames)
{
    const JsonValue doc =
        JsonValue::parse(R"({"c": "blue", "bad": "green", "n": 3})");
    EXPECT_EQ(choice(doc, "c", kColors), Color::Blue);
    EXPECT_EQ(choice(doc, "absent", Color::Red, kColors), Color::Red);
    EXPECT_EQ(errorOf([&] { choice(doc, "bad", kColors); }),
              "'bad' must be one of 'red', 'blue' (got \"green\")");
    EXPECT_EQ(errorOf([&] { choice(doc, "n", Color::Red, kColors); }),
              "'n' must be one of 'red', 'blue' (got 3)");
}

TEST(JsonReaders, ContextPrefixesTheMessage)
{
    const JsonValue doc = JsonValue::parse(R"({"neg": -1, "n": 5})");
    EXPECT_EQ(errorOf([&] {
                  inContext([&] { return count(doc, "neg"); }, "regions[",
                            1, "]");
              }),
              "regions[1]: 'neg' must be a non-negative integer (got -1)");
    EXPECT_EQ(errorOf([&] {
                  inContext(
                      [&] {
                          return inContext(
                              [&] { return count(doc, "missing"); },
                              "scenario 'a'");
                      },
                      "chunk ", 4);
              }),
              "chunk 4: scenario 'a': missing 'missing'");
    EXPECT_EQ(inContext([&] { return count(doc, "n"); }, "unused"), 5u);
}

TEST(JsonReadersDeathTest, ReadJsonAsIsTheOneFatalPath)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const JsonValue doc = JsonValue::parse(R"({"neg": -1})");
    EXPECT_EXIT(readJsonAs("sweep plan 'p.json'",
                           [&] { return count(doc, "neg"); }),
                ::testing::ExitedWithCode(1),
                "fatal: bad sweep plan 'p\\.json': 'neg' must be a "
                "non-negative integer \\(got -1\\)");
    EXPECT_EXIT(readJsonAs("trace 't.json'",
                           [] { return JsonValue::parse("["); }),
                ::testing::ExitedWithCode(1),
                "fatal: failed to parse trace 't\\.json': unexpected "
                "end of input");
}

TEST(JsonDump, RoundTripsStructure)
{
    const std::string source =
        R"({"a":[1,2.5,"s",true,null],"b":{"c":[{"d":1}]},"e":-0.125})";
    const JsonValue doc = JsonValue::parse(source);
    const JsonValue reparsed = JsonValue::parse(doc.dump());
    EXPECT_EQ(reparsed.dump(), doc.dump());
    EXPECT_DOUBLE_EQ(reparsed.at("e").asNumber(), -0.125);
    EXPECT_TRUE(reparsed.at("a").asArray()[4].isNull());
}

TEST(JsonDump, PrettyPrintIndents)
{
    const JsonValue doc = JsonValue::parse(R"({"a": [1], "b": 2})");
    const std::string pretty = doc.dump(2);
    EXPECT_NE(pretty.find("\n  \"a\""), std::string::npos);
    // Compact dump has no whitespace.
    EXPECT_EQ(doc.dump().find('\n'), std::string::npos);
}

TEST(JsonDump, EscapesStrings)
{
    JsonObject object;
    object["k"] = JsonValue("line\nbreak \"q\"");
    const std::string out = JsonValue(std::move(object)).dump();
    EXPECT_NE(out.find(R"(\n)"), std::string::npos);
    EXPECT_NE(out.find(R"(\")"), std::string::npos);
    // And it round-trips.
    EXPECT_EQ(JsonValue::parse(out).at("k").asString(),
              "line\nbreak \"q\"");
}

TEST(JsonDump, IntegersPrintWithoutDecimals)
{
    EXPECT_EQ(JsonValue(42.0).dump(), "42");
    EXPECT_EQ(JsonValue(2.5).dump(), "2.5");
}

/** The writer's specification: printf's "%.0f" for integral values of
 *  magnitude below 1e15, "%.17g" for everything else. */
std::string
printfNumber(double value)
{
    char buffer[40];
    if (value == std::floor(value) && std::fabs(value) < 1e15)
        std::snprintf(buffer, sizeof(buffer), "%.0f", value);
    else
        std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

TEST(JsonDump, NumbersMatchPrintfCorpus)
{
    constexpr double kMax = std::numeric_limits<double>::max();
    const std::vector<double> corpus = {
        0.0, -0.0, 1.0, -1.0, 0.5, 0.1, -0.125, 0.30000000000000004,
        1e-4, 1e-5, 123456.789, 3.141592653589793, 2.718281828459045,
        1e15, -1e15, 1e15 - 1.0, -(1e15 - 1.0), std::nextafter(1e15, 0.0),
        std::nextafter(1e15, 2e15), 1e15 + 0.5, 1e16, 1e17, 1e21, 1e22,
        0x1p53, 0x1p53 + 2.0, 9.9999999999999999e16, 123456789012345678.0,
        kMax, -kMax, std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(), 1e-310, -1e-310};
    for (double value : corpus)
        EXPECT_EQ(JsonValue(value).dump(), printfNumber(value)) << value;
}

TEST(JsonDump, NonFiniteNumbersThrow)
{
    // JSON has no spelling for infinities or NaN; writing "inf" would
    // produce a document no reader (this one included) parses.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    for (const double value : {kInf, -kInf, kNan, -kNan}) {
        EXPECT_THROW(JsonValue(value).dump(), JsonTypeError) << value;
        JsonObject object;
        object["nested"] = JsonValue(JsonArray{JsonValue(1.0),
                                               JsonValue(value)});
        EXPECT_THROW(JsonValue(std::move(object)).dump(2),
                     JsonTypeError)
            << value;
    }
    try {
        JsonValue(kInf).dump();
        ADD_FAILURE() << "dump() accepted inf";
    } catch (const JsonTypeError &error) {
        EXPECT_STREQ(error.what(),
                     "JSON cannot represent the non-finite number inf");
    }
}

TEST(JsonDump, NumbersMatchPrintfOnRandomDoubles)
{
    // A million seeded finite doubles: raw 64-bit patterns (every
    // exponent, subnormals included) and integers around 1e15, where
    // the writer switches from "%.0f" to "%.17g".
    util::Xorshift64Star rng(20261016);
    int checked = 0;
    int mismatches = 0;
    while (checked < 1000000) {
        const std::uint64_t bits = rng.next();
        const double value =
            bits % 4 == 0
                ? static_cast<double>(rng.nextBelow(4000000000000000)) -
                      2e15
                : std::bit_cast<double>(bits);
        if (!std::isfinite(value))
            continue;
        ++checked;
        const std::string written = JsonValue(value).dump();
        const std::string expected = printfNumber(value);
        if (written != expected && ++mismatches <= 5)
            ADD_FAILURE() << "wrote " << written << ", printf " << expected;
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(JsonDump, NumbersMatchPrintfAcrossTheIntegerKernel)
{
    // The writer's exact integer "%.17g" path covers normal values with
    // 1e-6 <= |value| < 1e17; raw bit patterns reach it rarely. Draw
    // every binary exponent from 2^-21 to 2^57 (the range and one
    // binade past each end, where std::to_chars takes over), with
    // random significands and signs, and short decimals, whose
    // trailing zeros the writer trims.
    util::Xorshift64Star rng(20261019);
    int mismatches = 0;
    for (int i = 0; i < 500000; ++i) {
        const std::uint64_t bits = rng.next();
        const std::uint64_t biased = 1002 + rng.nextBelow(79);
        double value = std::bit_cast<double>(
            (bits & 0x800fffffffffffffULL) | biased << 52);
        if (i % 8 == 0) {
            value = static_cast<double>(rng.nextBelow(2000000)) /
                    std::pow(10.0, static_cast<double>(rng.nextBelow(18)));
        }
        const std::string written = JsonValue(value).dump();
        const std::string expected = printfNumber(value);
        if (written != expected && ++mismatches <= 5)
            ADD_FAILURE() << "wrote " << written << ", printf " << expected;
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(JsonDump, NumbersMatchPrintfAtTheIntegerKernelEdges)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> corpus;
    // 10^k and its neighbours: the decimal exponent's edges, the
    // doubles nearest below a power of ten (where the 17 digits come
    // closest to carrying), and both ends of the kernel's range.
    for (int k = -7; k <= 17; ++k) {
        const double power =
            std::strtod(("1e" + std::to_string(k)).c_str(), nullptr);
        corpus.insert(corpus.end(), {power, std::nextafter(power, 0.0),
                                     std::nextafter(power, kInf)});
    }
    corpus.insert(corpus.end(), {
        // The switch to exponent notation below 1e-4.
        1.5e-4, 9.5e-5, 1.2345e-5, 0.000123456789, 0.0000123456789,
        // The switch from "%.0f" to "%.17g" at 1e15.
        1e15 - 1.0, 1e15 - 0.5, 1e15 + 2.0, 0x1p50 + 0.25,
        // The largest doubles below 1e17, all 17 digits significant.
        99999999999999984.0, 99999999999999968.0,
        // Short binary fractions.
        0.5, 0.25, 0x1p-20, 0x1p-19 * 3.0,
        // Exact ties at the 17th digit, rounding half to even both ways.
        0x1.2p-20, 0x1.7p-19, 0x1.1e4p-11, 0x1.358p-12, 0x1.3519p-2,
        0x1.cb758p-1, 0x1.582e4p+1, 0x1.84e4cp+1, 0x1.d0accdp+10,
        0x1.90551fp+10, 0x1.abd59e2b4dp+32, 0x1.8e28ebc173p+32,
        0x1.08ef563aa95d5p+49, 0x1.03f80f4c12d06p+48,
        0x1.e689c98abfa6dp+50, 0x1.a37204da49367p+50});
    const std::size_t positive = corpus.size();
    for (std::size_t i = 0; i < positive; ++i)
        corpus.push_back(-corpus[i]);
    corpus.push_back(-0.0);
    for (double value : corpus)
        EXPECT_EQ(JsonValue(value).dump(), printfNumber(value)) << value;
}

/** The escaper's specification, one byte at a time. */
std::string
referenceEscaped(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    return out + '"';
}

TEST(JsonDump, EscapingMatchesAByteAtATimeEscaper)
{
    // Long runs of bytes that need no escape (UTF-8 and DEL included),
    // with quotes, backslashes and control bytes at the start, in the
    // middle and at the end, as string values and as object keys.
    util::Xorshift64Star rng(20261019);
    const std::string special = std::string("\"\\\b\f\n\r\t\x01\x1f", 9) +
                                std::string(1, '\0');
    for (int trial = 0; trial < 2000; ++trial) {
        std::string text;
        if (trial % 2 == 0)
            text += special[rng.nextBelow(special.size())];
        const int runs = static_cast<int>(rng.nextBelow(4));
        for (int run = 0; run <= runs; ++run) {
            const auto length = rng.nextBelow(trial % 10 == 0 ? 40000 : 300);
            for (std::uint64_t i = 0; i < length; ++i)
                text += static_cast<char>(0x20 + rng.nextBelow(0xe0));
            if (run < runs || trial % 3 == 0)
                text += special[rng.nextBelow(special.size())];
        }
        const std::string expected = referenceEscaped(text);
        ASSERT_EQ(JsonValue(text).dump(), expected) << "trial " << trial;
        JsonObject object;
        object[text] = JsonValue(1.0);
        ASSERT_EQ(JsonValue(std::move(object)).dump(),
                  "{" + expected + ":1}")
            << "trial " << trial;
    }
    EXPECT_EQ(JsonValue(std::string()).dump(), "\"\"");
    EXPECT_EQ(JsonValue(special).dump(),
              R"("\"\\\b\f\n\r\t\u0001\u001f\u0000")");
}

TEST(JsonFile, SaveAndLoad)
{
    const std::string path = ::testing::TempDir() + "/act_json_test.json";
    JsonObject object;
    object["value"] = JsonValue(0.875);
    saveJsonFile(path, JsonValue(std::move(object)));
    const JsonValue loaded = loadJsonFile(path);
    EXPECT_DOUBLE_EQ(loaded.at("value").asNumber(), 0.875);
}

TEST(JsonFile, NonFiniteValueIsFatalNamingThePath)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path =
        ::testing::TempDir() + "/act_json_test_inf.json";
    JsonObject object;
    object["total_g"] = JsonValue(std::numeric_limits<double>::infinity());
    const JsonValue value(std::move(object));
    EXPECT_EXIT(saveJsonFile(path, value), ::testing::ExitedWithCode(1),
                "cannot write JSON file '.*act_json_test_inf\\.json': "
                "JSON cannot represent the non-finite number inf");
}

TEST(JsonFile, NonFiniteValueLateInAStreamedFileRemovesTheFile)
{
    // The NaN sits past the first blocks, which are already written
    // when dump() rejects it; the partial document must not survive.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path =
        ::testing::TempDir() + "/act_json_test_nan.json";
    JsonArray samples;
    for (int i = 0; i < 8000; ++i)
        samples.push_back(JsonValue(1.0 / (i + 3)));
    samples[7990] = JsonValue(std::numeric_limits<double>::quiet_NaN());
    const JsonValue value(std::move(samples));
    std::ofstream(path) << "stale\n";
    EXPECT_EXIT(saveJsonFile(path, value), ::testing::ExitedWithCode(1),
                "cannot write JSON file '.*act_json_test_nan\\.json': "
                "JSON cannot represent the non-finite number nan");
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(JsonFile, MissingFileIsFatal)
{
    EXPECT_EXIT(loadJsonFile("/nonexistent/act.json"),
                ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace act::config
